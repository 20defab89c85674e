//! End-to-end smoke tests for the observability layer.
//!
//! Runs the real `repro` binary on the fig7 campaign with tracing
//! enabled and checks the whole chain: the JSONL event log parses and
//! validates clean, `trace-export` emits loadable Chrome trace-event
//! JSON, `check --trace-in` accepts the recorded trace and rejects a
//! perturbed one — and, the headline guarantee, stdout stays
//! byte-identical whether or not tracing and the dashboard are on. A
//! `--shards 2` run records both shards into one log that validates.

use std::path::PathBuf;
use std::process::{Command, Output};

use hetsim_obs::{parse_jsonl, validate_events, EventKind, TraceEvent};
use serde::value::Value;

/// Instruction budget (matches the golden snapshots; small enough for
/// a quick run, large enough that every design executes real work).
const INSTS: &str = "3000";

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetcore-trace-smoke-{}-{name}", std::process::id()))
}

fn names_of(events: &[TraceEvent], want_span: bool) -> Vec<&str> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }) == want_span)
        .map(|e| e.name.as_str())
        .collect()
}

#[test]
fn fig7_trace_records_exports_and_validates() {
    let trace_path = tmp("trace.jsonl");
    let chrome_path = tmp("trace.json");
    let trace_arg = trace_path.to_string_lossy().into_owned();
    let chrome_arg = chrome_path.to_string_lossy().into_owned();

    // ---- record: repro --trace-out writes a JSONL span log ----
    let out = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--trace-out",
        &trace_arg,
        "fig7",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "traced run fails: {stderr}");
    assert!(
        stderr.contains("trace event(s)"),
        "narrates the trace write: {stderr}"
    );

    // The log parses, validates clean, and covers every span kind the
    // runner emits plus the campaign scope wrapped around it.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_jsonl(&text).expect("trace parses");
    assert_eq!(validate_events(&events), Vec::<String>::new());
    let spans = names_of(&events, true);
    for name in [
        "cpu-campaign",
        "batch",
        "cache-lookup",
        "simulate",
        "cache-write",
    ] {
        assert!(spans.contains(&name), "trace has a `{name}` span");
    }
    assert!(
        names_of(&events, false).contains(&"job-finished"),
        "trace has job-finished instants"
    );

    // ---- export: Chrome trace-event JSON, Perfetto-loadable ----
    let out = repro(&["trace-export", &trace_arg, &chrome_arg]);
    assert!(
        out.status.success(),
        "trace-export fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome_text = std::fs::read_to_string(&chrome_path).expect("chrome trace written");
    let doc: Value = serde_json::from_str(&chrome_text).expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let trace_events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let phase_of = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_string);
    for ph in ["X", "i", "M"] {
        assert!(
            trace_events
                .iter()
                .any(|e| phase_of(e).as_deref() == Some(ph)),
            "chrome trace has a '{ph}' event"
        );
    }
    assert!(
        trace_events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("simulate")),
        "chrome trace keeps the simulate spans"
    );

    // ---- validate: check --trace-in accepts the recorded trace ----
    let out = repro(&["check", "--trace-in", &trace_arg]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check rejects a good trace: {stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");

    // ---- ... and rejects a perturbed one (inverted span) ----
    let mut broken = events;
    let victim = broken
        .iter_mut()
        .find(|e| e.name == "simulate")
        .expect("a simulate span to perturb");
    if let EventKind::Span { start_us, end_us } = &mut victim.kind {
        *start_us = *end_us + 1_000; // now ends before it starts
    }
    let bad_path = tmp("broken.jsonl");
    let bad_jsonl: String = broken
        .iter()
        .map(|e| {
            let mut line =
                serde_json::to_string(&serde::Serialize::to_value(e)).expect("serializes");
            line.push('\n');
            line
        })
        .collect();
    std::fs::write(&bad_path, bad_jsonl).expect("write perturbed trace");
    let out = repro(&[
        "check",
        "--trace-in",
        &bad_path.to_string_lossy(),
        "--format",
        "json",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "perturbed trace must fail: {stdout}");
    assert!(stdout.contains("ends before it starts"), "{stdout}");

    for path in [&trace_path, &chrome_path, &bad_path] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn stdout_is_byte_identical_with_and_without_tracing() {
    let trace_path = tmp("identity.jsonl");
    let trace_arg = trace_path.to_string_lossy().into_owned();

    let plain = repro(&["--insts", INSTS, "--format", "json", "fig7"]);
    assert!(plain.status.success());

    // Tracing *and* the dashboard on; stdout is piped (not a TTY), so
    // the dashboard must degrade to plain stderr lines, and the report
    // bytes must not move at all.
    let traced = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--trace-out",
        &trace_arg,
        "--progress=dashboard",
        "fig7",
    ]);
    let stderr = String::from_utf8_lossy(&traced.stderr);
    assert!(traced.status.success(), "traced run fails: {stderr}");
    assert_eq!(
        plain.stdout, traced.stdout,
        "stdout must stay byte-identical under --trace-out + --progress"
    );
    assert!(
        stderr.contains("[runner] done:"),
        "dashboard degrades to line progress when stderr is piped: {stderr}"
    );

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn a_sharded_trace_records_every_job_and_validates() {
    let trace_path = tmp("sharded.jsonl");
    let trace_arg = trace_path.to_string_lossy().into_owned();

    let out = repro(&[
        "--insts",
        "2000",
        "--shards",
        "2",
        "--trace-out",
        &trace_arg,
        "fig7",
    ]);
    assert!(
        out.status.success(),
        "sharded traced run fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Both shards record into the one log: every fig7 job (14 apps x
    // 11 chips) executes once, so there is one simulate span each.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_jsonl(&text).expect("trace parses");
    assert_eq!(validate_events(&events), Vec::<String>::new());
    let simulates = names_of(&events, true)
        .into_iter()
        .filter(|name| *name == "simulate")
        .count();
    assert_eq!(simulates, 154, "one simulate span per executed job");

    let out = repro(&["check", "--trace-in", &trace_arg]);
    assert!(
        out.status.success(),
        "check rejects the sharded trace: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_file(&trace_path);
}
