//! `hetperf`: the campaign benchmark of the HetCore reproduction.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path hetperf/Cargo.toml -- \
//!     --workload cpu-campaign --seed 42 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` re-drives the same batch with a span around every call
//! into a layer and reports the per-layer metrics (see README.md). Both
//! check every outcome. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod gate;
mod measure;
mod paper;
mod stats;
mod sys;
mod traced;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use serde::value::Value;

use crate::gate::Gate;
use crate::measure::Report;
use crate::sys::Provenance;
use crate::workload::{Workload, WORKERS};

const USAGE: &str =
    "usage: hetperf --workload <cpu-campaign|gpu-campaign|explore-sweep|seed-sweep> \
                     --seed <N> --seconds <1-600> --trace <0|1>";

/// Longest measuring time a run accepts.
const MAX_SECONDS: u64 = 600;

/// Where runs keep their caches (removed on exit) and traces.
const WORK_DIR: &str = ".hetperf";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1-{MAX_SECONDS}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(gate: &Gate, report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(gate.correct())),
        ("attempted".into(), Value::UInt(gate.attempted)),
        ("failed".into(), Value::UInt(gate.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serialization is infallible")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hetperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let provenance = Provenance::collect(Path::new("."), WORKERS);
    println!("{}", provenance.line());
    if !provenance.single_worker() {
        let warning =
            format!("WARNING: {WORKERS} worker threads; timings are comparable only at 1 worker");
        eprintln!("{warning}");
        println!("{warning}");
    }
    println!(
        "workload {name}, seed {}, {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );

    let work = Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    let mut gate = Gate::new(hetcore::check::perturbation_from_env());
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        measure::traced(args.workload, args.seed, budget, &work, &mut gate)
    } else {
        measure::untraced(args.workload, args.seed, budget, &work, &mut gate)
    };
    if let Err(e) = std::fs::remove_dir_all(&work) {
        eprintln!("hetperf: cannot remove {}: {e}", work.display());
    }
    if let Some(trace) = &report.chrome_trace {
        let path = Path::new(WORK_DIR).join(format!("{name}.trace.json"));
        match hetsim_runner::write_atomic(&path, trace) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("hetperf: cannot write {}: {e}", path.display()),
        }
    }

    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for note in &gate.notes {
        println!("FAILED: {note}");
    }
    println!("{}", result_line(&gate, &report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload seed-sweep --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(args.workload, Workload::SeedSweep);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload cpu-campaign --seed x --seconds 1 --trace 0",
            "--workload cpu-campaign --seed 1 --seconds 0 --trace 0",
            "--workload cpu-campaign --seed 1 --seconds 1 --trace 2",
            "--workload cpu-campaign --seed 1 --seconds 1",
            "--workload cpu-campaign --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut gate = Gate::new(None);
        gate.pass(3);
        let mut report = Report::default();
        report.metrics.push(measure::Metric {
            name: "cpu_s",
            value: 1.25,
            unit: "s",
        });
        assert_eq!(
            result_line(&gate, &report),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"cpu_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
