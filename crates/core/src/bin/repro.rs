//! Regenerates every table and figure of the paper's evaluation, and
//! gates reruns against pinned baselines.
//!
//! Every subcommand's arguments are declared in one flag table (the
//! `Command` constants below); one scanner reads every command line
//! against its table, and the usage text printed on an argument error
//! is rendered from the same tables.
//!
//! With no experiment arguments, runs `all`. `--quick` shrinks the
//! instruction budget for fast smoke runs (CI); `--insts N` sets it
//! exactly (and wins over `--quick`); full runs use the default budget
//! of `Suite::default()`.
//!
//! `--format` picks the report rendering: `table` (default) prints the
//! paper-shaped text tables, `json` emits one JSON array of report
//! objects, `csv` emits one CSV block per report (full precision).
//! `--json` is a shorthand for `--format json`. Independently,
//! `--stats-out PATH` writes the run's complete counter telemetry —
//! every per-design pipeline/memory/GPU counter plus the runner's
//! execution stats — as JSON to `PATH` (see `hetcore::telemetry`),
//! atomically and creating missing parent directories.
//!
//! The three subcommands close the regression loop
//! (see `hetcore::regression`):
//!
//! * `baseline DIR` reruns the pinned targets (default: fig7 fig8
//!   fig14 ext) and writes one self-describing stats dump per target
//!   into `DIR`;
//! * `diff` compares two dumps and exits non-zero on any regression,
//!   naming the design, counter, delta and violated tolerance;
//! * `ci-gate` replays every baseline in a directory at its recorded
//!   configuration and diffs the fresh run against it — the CI job.
//!
//! `bench` is the pinned perf-measurement subsystem (see
//! `hetcore::bench` and `hetsim_bench`): it times a fixed menu of
//! campaign and microbench scenarios — fixed seeds, fixed budgets,
//! cache bypassed — and writes a schema-versioned `BENCH_*.json` dump
//! recording simulated-insts/sec per scenario with full repeat
//! statistics. `--compare` diffs two dumps with noise-aware relative
//! thresholds and exits non-zero on regression; `--ratchet` applies
//! the wide cross-machine CI tolerance the `bench-smoke` job gates on.
//!
//! `check` is the runtime-invariant and metamorphic-fuzz harness (see
//! `hetcore::check`): it reruns the fig7 + fig10 campaigns validating
//! every outcome and the serialized telemetry against the accounting
//! invariants, then runs `--fuzz N` seeded rounds of random workloads
//! asserting oracle-free metamorphic relations (work monotonicity,
//! runner split/merge invariance, DVFS directionality, GPU clock
//! invariance). Any violation is reported by name and fails the run.
//!
//! The campaigns run on the `hetsim-runner` engine: `--jobs N` sets the
//! worker-thread count (default: all available cores; output is
//! bit-identical for any `N`), `--cache-dir PATH` persists simulation
//! outcomes as content-addressed JSON so reruns are near-free,
//! `--shards N` splits each campaign by job key across N runners in
//! this process (`hetsim_runner::run_partitioned`; the `--jobs` threads
//! are divided between them, and output is bit-identical for any `N`),
//! and `--progress` narrates per-job completion and cache hits on
//! stderr (`--progress=dashboard` draws a live in-place dashboard on a
//! TTY).
//!
//! Observability (see `hetsim_obs`): `--trace-out PATH` records every
//! job's phases (cache lookup, queue wait, simulate, cache write) plus
//! campaign/batch scopes as a JSONL span log; `trace-export` converts
//! that log to Chrome trace-event JSON for Perfetto; `check --trace-in`
//! re-validates a trace file's structure. Tracing only adds output —
//! reports on stdout are byte-identical with and without it.
//!
//! Cycle attribution (see `hetsim_obs::profile`): `profile` runs the
//! campaign experiments with top-down cycle attribution enabled —
//! every simulated cycle of every core/CU charged to one class
//! (retire, frontend, branch-redirect, rob-full, issue-bound,
//! mem-latency, idle-skipped) — and renders the per-design roll-up as
//! a table, the raw `hetsim-profile-v1` document (`--format json`), or
//! folded stacks for flamegraph tools (`--format folded`);
//! `--counters-out` additionally writes Perfetto counter tracks.
//! `--profile-out PATH` on a plain run opts the same attribution into
//! any campaign and writes the document to `PATH`. Like tracing it is
//! strictly additive: headline stdout stays byte-identical, and with
//! profiling off the simulators skip all histogram work.
//!
//! Arguments are validated up front: any unknown argument (or any flag
//! missing its value) fails the run before any experiment starts, no
//! matter where it appears on the command line, and every error is
//! reported, in argument order. A command without positional arguments
//! calls a stray word an unknown argument; one with positionals treats
//! every word not starting with `--` as positional, so only an unknown
//! `--` word is an unknown flag.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use hetcore::bench::{run_bench, BenchConfig};
use hetcore::campaign::traced_campaign;
use hetcore::check::{
    fuzz_round, perturbation_from_env, validate_cpu_outcome, validate_dump, validate_gpu_outcome,
};
use hetcore::explore::{explore, DesignSpace, ExploreConfig, DEFAULT_EXPLORE_INSTS};
use hetcore::regression::{diff_dumps, DiffPolicy, DumpDoc};
use hetcore::report::Report;
use hetcore::suite::{CpuCampaign, Experiment, Extension, GpuCampaign, Suite};
use hetcore::telemetry::StatsDump;
use hetsim_check::Checker;
use hetsim_obs::profile::collector;
use hetsim_obs::{
    chrome_trace, parse_jsonl, stitch_traces, validate_events, CycleProfile, MonotonicClock,
    TraceRecorder,
};
use hetsim_runner::{
    workers_per_shard, write_atomic, DashboardSink, MultiSink, NullSink, ProgressSink, Runner,
    RunnerStats, RunnerTiming, StderrSink, TraceEventSink,
};
use hetsim_stats::attribution::{self, CycleClass};
use serde::Serialize as _;

/// How reports are rendered on stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Paper-shaped text tables (the default).
    Table,
    /// One JSON array of report objects.
    Json,
    /// One CSV block per report.
    Csv,
}

/// How a run narrates progress on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Progress {
    /// No narration (the default).
    #[default]
    Quiet,
    /// One line per job (`--progress` / `--progress=stderr`).
    Stderr,
    /// The in-place live dashboard (`--progress=dashboard`); degrades
    /// to the line sink when stderr is not a terminal, so piped logs
    /// never contain ANSI control sequences.
    Dashboard,
}

/// The progress sink for `mode` (+ a trace-event bridge when tracing),
/// honoring the dashboard's TTY degrade.
fn progress_sink(mode: Progress, recorder: Option<&Arc<TraceRecorder>>) -> Arc<dyn ProgressSink> {
    let mut sinks: Vec<Arc<dyn ProgressSink>> = Vec::new();
    match mode {
        Progress::Quiet => {}
        Progress::Stderr => sinks.push(Arc::new(StderrSink::new())),
        Progress::Dashboard => {
            if std::io::stderr().is_terminal() {
                let clock = match recorder {
                    Some(r) => r.clock(),
                    None => Arc::new(MonotonicClock::new()),
                };
                sinks.push(Arc::new(DashboardSink::new(clock)));
            } else {
                sinks.push(Arc::new(StderrSink::new()));
            }
        }
    }
    if let Some(recorder) = recorder {
        sinks.push(Arc::new(TraceEventSink::new(recorder.clone())));
    }
    match sinks.len() {
        0 => Arc::new(NullSink),
        1 => sinks.pop().expect("one sink"),
        _ => Arc::new(MultiSink::new(sinks)),
    }
}

// ---------------------------------------------------------------------
// Argument scanning. Every subcommand declares its grammar as a flag
// table (a `Command`); one scanner reads any command line against its
// table, and the usage text is rendered from the same tables.
// ---------------------------------------------------------------------

/// How a flag takes its value.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// No value.
    Switch,
    /// One value, as `--flag VALUE` or `--flag=VALUE`. The text is the
    /// usage placeholder; for a flag read with [`Args::choice`] or
    /// [`Args::format`] it lists the accepted words, `|`-separated.
    Value(&'static str),
    /// Like `Value`, for a flag the command reads every value of (with
    /// [`Args::parse`]); the usage marks it repeatable.
    Many(&'static str),
    /// Like `Value`, but the command fails without it.
    Required(&'static str),
    /// An optional inline value only (`--flag[=WORD]`), so the flag never
    /// consumes the next word. Lists its words like `Value`; given bare,
    /// it means the first.
    Inline(&'static str),
    /// Shorthand for another flag with a fixed value.
    Alias(&'static str, &'static str),
}

/// One flag a subcommand accepts: its name and how it takes a value.
#[derive(Debug, Clone, Copy)]
struct Flag(&'static str, Kind);

/// A subcommand's argument grammar.
struct Command {
    /// The subcommand word (empty for the default run command).
    name: &'static str,
    flags: &'static [Flag],
    /// Usage words for the positional arguments. Empty when the command
    /// takes none: then every word missing from `flags` is an unknown
    /// argument. Otherwise a word is positional unless it starts with
    /// `--`, and an unlisted `--` word is an unknown flag.
    positionals: &'static str,
}

impl Command {
    /// This command's usage line.
    fn usage(&self) -> String {
        let mut line = String::from("repro");
        if !self.name.is_empty() {
            line = format!("{line} {}", self.name);
        }
        for Flag(name, kind) in self.flags {
            line += &match kind {
                Kind::Switch | Kind::Alias(..) => format!(" [{name}]"),
                Kind::Value(v) => format!(" [{name} {v}]"),
                Kind::Many(v) => format!(" [{name} {v}]..."),
                Kind::Required(v) => format!(" {name} {v}"),
                Kind::Inline(v) => format!(" [{name}[={v}]]"),
            };
        }
        if !self.positionals.is_empty() {
            line = format!("{line} {}", self.positionals);
        }
        line
    }
}

const QUICK: Flag = Flag("--quick", Kind::Switch);
const INSTS: Flag = Flag("--insts", Kind::Value("N"));
const SEED: Flag = Flag("--seed", Kind::Value("S"));
const JOBS: Flag = Flag("--jobs", Kind::Value("N"));
const SHARDS: Flag = Flag("--shards", Kind::Value("N"));
const CACHE_DIR: Flag = Flag("--cache-dir", Kind::Value("PATH"));
const PROGRESS: Flag = Flag("--progress", Kind::Inline("stderr|dashboard"));
const REL_TOL: Flag = Flag("--rel-tol", Kind::Value("X"));
const FORMAT: Flag = Flag("--format", Kind::Value("table|json|csv"));
const FORMAT_TABLE_JSON: Flag = Flag("--format", Kind::Value("table|json"));

const RUN: Command = Command {
    name: "",
    flags: &[
        QUICK,
        INSTS,
        FORMAT,
        Flag("--json", Kind::Alias("--format", "json")),
        Flag("--stats-out", Kind::Value("PATH")),
        Flag("--trace-out", Kind::Value("PATH")),
        Flag("--profile-out", Kind::Value("PATH")),
        JOBS,
        SHARDS,
        CACHE_DIR,
        PROGRESS,
    ],
    positionals: "[EXPERIMENT]...",
};

const BASELINE: Command = Command {
    name: "baseline",
    flags: &[INSTS, JOBS, CACHE_DIR, PROGRESS],
    positionals: "DIR [TARGET]...",
};

const DIFF: Command = Command {
    name: "diff",
    flags: &[
        FORMAT,
        REL_TOL,
        Flag("--allow", Kind::Many("PREFIX")),
        Flag("--allow-schema-change", Kind::Switch),
    ],
    positionals: "BASELINE.json CANDIDATE.json",
};

const CI_GATE: Command = Command {
    name: "ci-gate",
    flags: &[
        Flag("--baseline", Kind::Required("DIR")),
        JOBS,
        CACHE_DIR,
        REL_TOL,
        PROGRESS,
    ],
    positionals: "",
};

const CHECK: Command = Command {
    name: "check",
    flags: &[
        Flag("--fuzz", Kind::Value("N")),
        SEED,
        INSTS,
        FORMAT_TABLE_JSON,
        JOBS,
        CACHE_DIR,
        PROGRESS,
        Flag("--trace-in", Kind::Value("PATH")),
    ],
    positionals: "",
};

const BENCH: Command = Command {
    name: "bench",
    flags: &[
        QUICK,
        INSTS,
        SEED,
        Flag("--warmup", Kind::Value("N")),
        Flag("--repeats", Kind::Value("N")),
        JOBS,
        Flag("--out", Kind::Value("BENCH.json")),
        FORMAT_TABLE_JSON,
        Flag("--trend", Kind::Switch),
        Flag("--compare", Kind::Value("BASELINE.json")),
        REL_TOL,
        Flag("--ratchet", Kind::Switch),
    ],
    positionals: "[CANDIDATE.json]",
};

const PROFILE: Command = Command {
    name: "profile",
    flags: &[
        QUICK,
        INSTS,
        SEED,
        JOBS,
        SHARDS,
        Flag("--format", Kind::Value("table|json|folded")),
        Flag("--out", Kind::Value("PATH")),
        Flag("--counters-out", Kind::Value("PATH")),
    ],
    positionals: "[EXPERIMENT]...",
};

const EXPLORE: Command = Command {
    name: "explore",
    flags: &[
        Flag("--space", Kind::Value("fig7")),
        Flag("--budget", Kind::Value("N")),
        SEED,
        INSTS,
        JOBS,
        SHARDS,
        CACHE_DIR,
        Flag("--sweep", Kind::Many("AXIS=V1,V2")),
        FORMAT,
        Flag("--frontier-out", Kind::Value("PATH")),
    ],
    positionals: "",
};

const TRACE_EXPORT: Command = Command {
    name: "trace-export",
    flags: &[],
    positionals: "IN.jsonl [IN2.jsonl]... OUT.json",
};

/// The public commands, in usage order.
const COMMANDS: [&Command; 9] = [
    &RUN,
    &BASELINE,
    &DIFF,
    &CI_GATE,
    &CHECK,
    &BENCH,
    &PROFILE,
    &EXPLORE,
    &TRACE_EXPORT,
];

fn usage() -> String {
    let lines: Vec<String> = COMMANDS.iter().map(|c| c.usage()).collect();
    format!(
        "usage: {}\nexperiments: all, ext, {}\nextensions:  {}",
        lines.join("\n       "),
        Experiment::ALL
            .iter()
            .map(|e| e.cli_name())
            .collect::<Vec<_>>()
            .join(", "),
        Extension::ALL
            .iter()
            .map(|e| e.cli_name())
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// "a, b or c".
fn or_list(words: &[&str]) -> String {
    match words {
        [rest @ .., last] if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => words.join(""),
    }
}

/// A command line scanned against its command's table. Values are
/// checked by the typed accessors, which word each kind of error once.
/// Every error carries the position of the word it concerns, so errors
/// print in argument order whatever order the command reads its flags
/// in; errors raised after the scan ([`Args::error`]) come last.
struct Args {
    cmd: &'static Command,
    /// Flag occurrences in argument order: position, name, and value
    /// (`None` for a switch).
    flags: Vec<(usize, &'static str, Option<String>)>,
    /// Positional words and their positions.
    words: Vec<(usize, String)>,
    errors: Vec<(usize, String)>,
}

/// Scans `args` against `cmd`'s flag table.
fn scan(cmd: &'static Command, args: &[String]) -> Args {
    let mut out = Args {
        cmd,
        flags: Vec::new(),
        words: Vec::new(),
        errors: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let pos = i;
        let arg = &args[i];
        i += 1;
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let Some(&Flag(name, kind)) = cmd.flags.iter().find(|f| f.0 == name) else {
            if cmd.positionals.is_empty() {
                out.errors.push((pos, format!("unknown argument '{name}'")));
            } else if name.starts_with("--") {
                out.errors.push((pos, format!("unknown flag '{name}'")));
            } else {
                out.words.push((pos, arg.clone()));
            }
            continue;
        };
        let (name, value) = match kind {
            Kind::Switch | Kind::Alias(..) if inline.is_some() => {
                out.errors.push((pos, format!("{name} takes no value")));
                continue;
            }
            Kind::Switch => (name, None),
            Kind::Alias(target, value) => (target, Some(value.to_string())),
            Kind::Inline(words) => {
                let first = words.split('|').next().unwrap_or_default();
                (name, Some(inline.unwrap_or_else(|| first.to_string())))
            }
            Kind::Value(_) | Kind::Many(_) | Kind::Required(_) => match inline {
                Some(v) => (name, Some(v)),
                None if i < args.len() => {
                    i += 1;
                    (name, Some(args[i - 1].clone()))
                }
                None => {
                    out.errors.push((pos, format!("{name} requires a value")));
                    continue;
                }
            },
        };
        out.flags.push((pos, name, value));
    }
    for &Flag(name, kind) in cmd.flags {
        if let Kind::Required(v) = kind {
            if !out.given(&[name]) {
                out.error(format!("{} requires {name} {v}", cmd.name));
            }
        }
    }
    out
}

impl Args {
    /// Whether any of `names` was given (a bare name or with a value).
    fn given(&self, names: &[&str]) -> bool {
        self.flags.iter().any(|(_, name, _)| names.contains(name))
    }

    /// The last value given for `name`, as a path.
    fn path(&self, name: &str) -> Option<PathBuf> {
        self.flags
            .iter()
            .rev()
            .find(|(_, n, _)| *n == name)
            .and_then(|(_, _, v)| v.as_deref())
            .map(PathBuf::from)
    }

    /// Runs `parse` on every value given for `name`, in order, reporting
    /// each failure at its word. The last value parsed wins.
    fn parse<T>(
        &mut self,
        name: &str,
        mut parse: impl FnMut(&str) -> Result<T, String>,
    ) -> Option<T> {
        let mut last = None;
        for (pos, n, value) in &self.flags {
            let Some(v) = value.as_deref().filter(|_| *n == name) else {
                continue;
            };
            match parse(v) {
                Ok(t) => last = Some(t),
                Err(e) => self.errors.push((*pos, e)),
            }
        }
        last
    }

    /// An integer >= 1.
    fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, name: &str) -> Option<T> {
        self.parse(name, |v| match v.parse::<T>() {
            Ok(n) if n >= T::from(1) => Ok(n),
            _ => Err(format!("{name} expects an integer >= 1, got '{v}'")),
        })
    }

    /// Any integer of `T`.
    fn int<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.parse(name, |v| {
            v.parse()
                .map_err(|_| format!("{name} expects an integer, got '{v}'"))
        })
    }

    /// A finite number >= 0.
    fn number(&mut self, name: &str) -> Option<f64> {
        self.parse(name, |v| match v.parse::<f64>() {
            Ok(x) if x >= 0.0 && x.is_finite() => Ok(x),
            _ => Err(format!("{name} expects a number >= 0, got '{v}'")),
        })
    }

    /// The words `name`'s table entry lists.
    fn choices(&self, name: &str) -> Vec<&'static str> {
        match self.cmd.flags.iter().find(|f| f.0 == name) {
            Some(Flag(_, Kind::Value(words) | Kind::Inline(words))) => words.split('|').collect(),
            _ => panic!("{name} lists no choices in the {:?} table", self.cmd.name),
        }
    }

    /// One of the words `name`'s table entry lists.
    fn choice(&mut self, name: &str) -> Option<&'static str> {
        let choices = self.choices(name);
        self.parse(name, |v| {
            choices
                .iter()
                .find(|c| **c == v)
                .copied()
                .ok_or_else(|| format!("{name} expects {}, got '{v}'", or_list(&choices)))
        })
    }

    /// `--format` as a report rendering. A rendering the command's
    /// table does not list is refused by name.
    fn format(&mut self) -> Option<Format> {
        let (cmd, supported) = (self.cmd.name, self.choices("--format"));
        self.parse("--format", |v| {
            let format = match v {
                "table" => Format::Table,
                "json" => Format::Json,
                "csv" => Format::Csv,
                _ => return Err(format!("--format expects table, json or csv, got '{v}'")),
            };
            if supported.contains(&v) {
                Ok(format)
            } else {
                Err(format!("{cmd} supports --format {}", or_list(&supported)))
            }
        })
    }

    /// `--progress[=stderr|dashboard]`.
    fn progress(&mut self) -> Progress {
        match self.choice("--progress") {
            None => Progress::Quiet,
            Some("dashboard") => Progress::Dashboard,
            Some(_) => Progress::Stderr,
        }
    }

    /// Resolves every positional word with `resolve`, reporting each
    /// failure at its word.
    fn positionals<T>(&mut self, mut resolve: impl FnMut(&str) -> Result<T, String>) -> Vec<T> {
        let mut out = Vec::new();
        for (pos, word) in &self.words {
            match resolve(word) {
                Ok(t) => out.push(t),
                Err(e) => self.errors.push((*pos, e)),
            }
        }
        out
    }

    /// Records an error about the command line as a whole.
    fn error(&mut self, message: impl Into<String>) {
        self.errors.push((usize::MAX, message.into()));
    }

    /// Every error, in argument order.
    fn finish(mut self) -> Result<(), Vec<String>> {
        if self.errors.is_empty() {
            return Ok(());
        }
        self.errors.sort_by_key(|(pos, _)| *pos);
        Err(self.errors.into_iter().map(|(_, e)| e).collect())
    }
}

/// Everything the default (run) command needs, parsed and validated as
/// a whole.
struct Options {
    suite: Suite,
    requested: Vec<Experiment>,
    extensions: Vec<Extension>,
    format: Format,
    stats_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
    jobs: usize,
    shards: usize,
    cache_dir: Option<PathBuf>,
    progress: Progress,
}

/// Parses the full argument list before running anything, collecting
/// *every* problem instead of stopping at the first: a typo'd
/// experiment name combined with valid flags is rejected identically
/// wherever it appears.
fn parse(args: &[String]) -> Result<Options, Vec<String>> {
    let mut args = scan(&RUN, args);
    let targets = args.positionals(|word| match word {
        "all" => Ok(None),
        _ => resolve_target(word).map(Some),
    });
    let mut suite = Suite::default();
    if args.given(&["--quick"]) {
        suite.insts_per_app = QUICK_INSTS;
    }
    if let Some(n) = args.count("--insts") {
        // An explicit budget wins over --quick wherever it appears.
        suite.insts_per_app = n;
    }
    let format = args.format().unwrap_or(Format::Table);
    let jobs = args.count("--jobs").unwrap_or_else(default_jobs);
    let shards = args.count("--shards").unwrap_or(1);
    let progress = args.progress();
    let stats_out = args.path("--stats-out");
    let trace_out = args.path("--trace-out");
    let profile_out = args.path("--profile-out");
    let cache_dir = args.path("--cache-dir");
    args.finish()?;

    let run_all = targets.iter().any(Option::is_none);
    let mut requested = Vec::new();
    let mut extensions = Vec::new();
    for (r, x) in targets.into_iter().flatten() {
        requested.extend(r);
        extensions.extend(x);
    }
    if (requested.is_empty() && extensions.is_empty()) || run_all {
        requested = Experiment::ALL.to_vec();
    }
    Ok(Options {
        suite,
        requested,
        extensions,
        format,
        stats_out,
        trace_out,
        profile_out,
        jobs,
        shards,
        cache_dir,
        progress,
    })
}

/// The instruction budget per application under `--quick`.
const QUICK_INSTS: u64 = 60_000;

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Everything one run produces: the rendered reports plus the complete
/// telemetry dump (campaign counters, runner stats, reports, run
/// config), ready to print, persist or diff.
struct Execution {
    reports: Vec<Report>,
    dump: StatsDump,
    /// The raw campaigns behind the reports, kept so `repro check` can
    /// validate every individual outcome (unused by the other commands).
    cpu: Option<CpuCampaign>,
    gpu: Option<GpuCampaign>,
}

/// Runs `requested` + `extensions` on `suite` and collects the output.
/// This is the one execution path shared by the default command,
/// `profile`, `check`, the baseline writer and the CI gate, so a
/// replayed baseline is produced by *exactly* the code a normal run
/// uses. Each campaign runs on `shards` runners (see
/// `campaign_runners`).
#[allow(clippy::too_many_arguments)]
fn execute(
    suite: &Suite,
    requested: &[Experiment],
    extensions: &[Extension],
    jobs: usize,
    shards: usize,
    cache_dir: &Option<PathBuf>,
    progress: Progress,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Execution, String> {
    let sink = progress_sink(progress, recorder);

    // Share campaigns across the figures that need them. Runners outlive
    // their campaigns: their cumulative stats feed the telemetry dump
    // after the reports are rendered.
    let (needs_cpu, needs_gpu) = campaign_needs(requested);
    let cpu_runners = needs_cpu
        .then(|| campaign_runners(jobs, shards, cache_dir.as_deref(), &sink, recorder))
        .transpose()?;
    let gpu_runners = needs_gpu
        .then(|| campaign_runners(jobs, shards, cache_dir.as_deref(), &sink, recorder))
        .transpose()?;
    // Zero the event-driven-step telemetry so the skip counters in this
    // dump cover exactly this execution (the atomics are process-global
    // and otherwise accumulate across runs in one process).
    hetsim_cpu::telemetry::reset();
    hetsim_gpu::telemetry::reset();
    let recorder_ref = recorder.map(Arc::as_ref);
    let workers = match (shards, workers_per_shard(jobs, shards)) {
        (1, n) => format!("{n} worker(s)"),
        (s, n) => format!("{s} shard(s) x {n} worker(s)"),
    };
    let cpu = cpu_runners.as_ref().map(|r| {
        eprintln!("running CPU campaign (11 chips x 14 applications, {workers})...");
        traced_campaign(recorder_ref, "cpu-campaign", || {
            suite.cpu_campaign_sharded(r)
        })
    });
    let gpu = gpu_runners.as_ref().map(|r| {
        eprintln!("running GPU campaign (5 designs x 20 kernels, {workers})...");
        traced_campaign(recorder_ref, "gpu-campaign", || {
            suite.gpu_campaign_sharded(r)
        })
    });

    let mut reports = Vec::new();
    for e in requested {
        let report = match e {
            Experiment::Table1 => suite.table1(),
            Experiment::Fig1 => suite.fig1(),
            Experiment::Fig2 => suite.fig2(),
            Experiment::Fig3 => suite.fig3(),
            Experiment::Fig7 => suite.fig7(cpu.as_ref().expect("campaign ran")),
            Experiment::Fig8 => suite.fig8(cpu.as_ref().expect("campaign ran")),
            Experiment::Fig9 => suite.fig9(cpu.as_ref().expect("campaign ran")),
            Experiment::Fig10 => suite.fig10(gpu.as_ref().expect("campaign ran")),
            Experiment::Fig11 => suite.fig11(gpu.as_ref().expect("campaign ran")),
            Experiment::Fig12 => suite.fig12(gpu.as_ref().expect("campaign ran")),
            Experiment::Fig13 => suite.fig13(cpu.as_ref().expect("campaign ran")),
            Experiment::Fig14 => suite.fig14(),
        };
        reports.push(report);
        if *e == Experiment::Fig8 {
            // The stacked-bar detail of Figure 8.
            reports.push(suite.fig8_breakdown(cpu.as_ref().expect("campaign ran")));
        }
    }
    for e in extensions {
        let report = match e {
            Extension::Migration => suite.ext_migration(),
            Extension::PartitionedRf => suite.ext_partitioned_rf(),
            Extension::Scheduling => suite.ext_scheduling(),
        };
        reports.push(report);
    }

    // The canonical experiment words: what `run.experiments` records
    // and what `ci-gate` replays. Derived the same way on record and
    // replay, so the words themselves always diff clean.
    let words: Vec<String> = requested
        .iter()
        .map(|e| e.cli_name().to_string())
        .chain(extensions.iter().map(|e| e.cli_name().to_string()))
        .collect();
    let mut dump = StatsDump::new().with_run(suite.insts_per_app, suite.seed, &words);
    if let Some(c) = &cpu {
        dump = dump.with_cpu_campaign(c);
    }
    if let Some(c) = &gpu {
        dump = dump.with_gpu_campaign(c);
    }
    if let Some(r) = &cpu_runners {
        // Fold the event-driven core's skip totals into the (already
        // regression-exempt) timing section.
        let (stats, mut timing) = runner_totals(r);
        timing.skipped_cycles = hetsim_cpu::telemetry::skipped_cycles();
        timing.wakeup_jumps = hetsim_cpu::telemetry::wakeup_jumps();
        dump = dump
            .with_runner("cpu", stats)
            .with_runner_timing("cpu", timing);
    }
    if let Some(r) = &gpu_runners {
        let (stats, mut timing) = runner_totals(r);
        timing.skipped_cycles = hetsim_gpu::telemetry::skipped_cycles();
        timing.wakeup_jumps = hetsim_gpu::telemetry::wakeup_jumps();
        dump = dump
            .with_runner("gpu", stats)
            .with_runner_timing("gpu", timing);
    }
    dump = dump.with_reports(&reports);
    let execution = Execution {
        reports,
        dump,
        cpu,
        gpu,
    };
    // With HETSIM_CHECK set, every command that executes experiments
    // (run, baseline, ci-gate) also validates the outcomes and the
    // serialized telemetry against the accounting invariants — a run
    // that is internally inconsistent fails even if no baseline exists
    // to diff it against. Pure counter arithmetic: no simulation cost.
    if hetsim_check::CheckConfig::from_env().enabled() {
        let mut checker = Checker::new();
        validate_execution(&execution, &mut checker);
        if !checker.is_clean() {
            for v in checker.violations() {
                eprintln!("{v}");
            }
            return Err(format!(
                "{} invariant violation(s) (HETSIM_CHECK)",
                checker.violations().len()
            ));
        }
    }
    Ok(execution)
}

/// The `shards` runners of one campaign, splitting `jobs` worker
/// threads between them (see `workers_per_shard`), all narrating to
/// `sink`, persisting outcomes to `cache_dir` and tracing into
/// `recorder` when given. CPU and GPU campaigns share one cache
/// directory: their key spaces are separated by schema tags (see
/// `hetcore::campaign`).
fn campaign_runners<T>(
    jobs: usize,
    shards: usize,
    cache_dir: Option<&std::path::Path>,
    sink: &Arc<dyn ProgressSink>,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Vec<Runner<T>>, String>
where
    T: Clone + Send + serde::Serialize + serde::Deserialize + hetsim_runner::SimMetrics,
{
    (0..shards)
        .map(|_| {
            let mut runner = Runner::new(workers_per_shard(jobs, shards)).with_sink(sink.clone());
            if let Some(dir) = cache_dir {
                runner = runner
                    .with_cache_dir(dir)
                    .map_err(|e| format!("cannot open cache directory: {e}"))?;
            }
            if let Some(recorder) = recorder {
                runner = runner.with_recorder(recorder.clone());
            }
            Ok(runner)
        })
        .collect()
}

/// The cumulative stats and phase timing of a campaign's runners.
fn runner_totals<T>(runners: &[Runner<T>]) -> (RunnerStats, RunnerTiming)
where
    T: Clone + Send + serde::Serialize + serde::Deserialize + hetsim_runner::SimMetrics,
{
    let mut stats = RunnerStats::default();
    let mut timing = RunnerTiming::default();
    for runner in runners {
        stats.merge(&runner.total_stats());
        timing.merge(&runner.total_timing());
    }
    (stats, timing)
}

/// Validates every campaign outcome and the serialized telemetry of one
/// execution (shared by the HETSIM_CHECK hook above and `repro check`,
/// which also counts the checks and injects perturbations).
fn validate_execution(execution: &Execution, checker: &mut Checker) {
    let mut max_cores = 1;
    let mut apps = 1;
    if let Some(campaign) = &execution.cpu {
        apps = campaign.outcomes.len() as u64;
        checker.scoped("campaign", |c| {
            for outcome in campaign.outcomes.iter().flatten() {
                max_cores = max_cores.max(outcome.cores);
                validate_cpu_outcome(outcome, c);
            }
        });
    }
    if let Some(campaign) = &execution.gpu {
        checker.scoped("campaign", |c| {
            for outcome in campaign.outcomes.iter().flatten() {
                validate_gpu_outcome(outcome, c);
            }
        });
    }
    validate_dump(
        &execution.dump.to_value(),
        apps,
        max_cores,
        perturbation_from_env().as_deref(),
        checker,
    );
}

fn print_reports(reports: &[Report], format: Format) -> Result<(), String> {
    match format {
        Format::Table => {
            for report in reports {
                println!("{report}");
            }
        }
        Format::Json => {
            let s = serde_json::to_string_pretty(&reports.to_vec())
                .map_err(|e| format!("failed to serialize reports: {e}"))?;
            println!("{s}");
        }
        Format::Csv => {
            for report in reports {
                println!("{}", report.to_csv());
            }
        }
    }
    Ok(())
}

fn fail(errors: &[String]) -> ExitCode {
    for e in errors {
        eprintln!("error: {e}");
    }
    eprintln!("{}", usage());
    ExitCode::FAILURE
}

/// The default command: run experiments, print reports, optionally
/// persist telemetry.
fn cmd_run(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(errors) => return fail(&errors),
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the experiments `opts` names and writes every requested output.
fn run(opts: &Options) -> Result<(), String> {
    // The recorder exists only when a trace was requested; without it
    // the run takes exactly the untraced code path, so headline output
    // stays byte-identical. Attribution is the same shape of opt-in:
    // the process-global flag stays off (and the simulators skip all
    // histogram work) unless --profile-out asked for it.
    if opts.profile_out.is_some() {
        attribution::set_enabled(true);
    }
    let recorder = opts
        .trace_out
        .is_some()
        .then(|| Arc::new(TraceRecorder::new(Arc::new(MonotonicClock::new()))));
    let execution = execute(
        &opts.suite,
        &opts.requested,
        &opts.extensions,
        opts.jobs,
        opts.shards,
        &opts.cache_dir,
        opts.progress,
        recorder.as_ref(),
    )?;
    // Drained exactly once per run; with profiling off the collector
    // was never touched and stays empty.
    let profile = opts.profile_out.is_some().then(collector::take);
    let mut dump = execution.dump;
    if let Some(p) = &profile {
        dump = dump.with_profile(p.to_value());
    }
    print_reports(&execution.reports, opts.format)?;
    if let Some(path) = &opts.stats_out {
        dump.write_to(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote counter telemetry to {}", path.display());
    }
    if let (Some(path), Some(recorder)) = (&opts.trace_out, &recorder) {
        let jsonl = recorder.to_jsonl();
        write_atomic(path, &jsonl).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let events = jsonl.lines().count();
        eprintln!("wrote {events} trace event(s) to {}", path.display());
    }
    if let (Some(path), Some(profile)) = (&opts.profile_out, &profile) {
        write_profile(path, profile)?;
    }
    Ok(())
}

/// Reads a JSONL trace log recorded by `--trace-out`.
fn read_trace(path: &std::path::Path) -> Result<Vec<hetsim_obs::TraceEvent>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a `hetsim-profile-v1` document to `path`, narrating on
/// stderr. A warm-cache run legitimately yields an empty document
/// (cache replay skips simulation), so emptiness is reported, not
/// failed.
fn write_profile(path: &std::path::Path, profile: &CycleProfile) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(&profile.to_value()).expect("value trees always serialize");
    write_atomic(path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "wrote cycle profile ({} unit(s)) to {}{}",
        profile.rows().len(),
        path.display(),
        if profile.is_empty() {
            " (empty: all jobs replayed from cache)"
        } else {
            ""
        }
    );
    Ok(())
}

/// The experiments that drive job batches (the rest compute inline).
fn campaign_needs(requested: &[Experiment]) -> (bool, bool) {
    let cpu = requested.iter().any(|e| {
        matches!(
            e,
            Experiment::Fig7 | Experiment::Fig8 | Experiment::Fig9 | Experiment::Fig13
        )
    });
    let gpu = requested
        .iter()
        .any(|e| matches!(e, Experiment::Fig10 | Experiment::Fig11 | Experiment::Fig12));
    (cpu, gpu)
}

/// Parses one experiment word.
fn experiment(word: &str) -> Result<Experiment, String> {
    Experiment::from_cli_name(word).ok_or_else(|| format!("unknown experiment '{word}'"))
}

/// A baseline target: one CLI word, resolved to the experiments and
/// extensions it runs.
fn resolve_target(word: &str) -> Result<(Vec<Experiment>, Vec<Extension>), String> {
    if word == "ext" {
        return Ok((Vec::new(), Extension::ALL.to_vec()));
    }
    match Extension::from_cli_name(word) {
        Some(e) => Ok((Vec::new(), vec![e])),
        None => experiment(word).map(|e| (vec![e], Vec::new())),
    }
}

/// The targets `repro baseline` pins by default (and the CI gate
/// replays): the paper's headline CPU figures, the device-level
/// Figure 14, and the extension studies.
const DEFAULT_BASELINE_TARGETS: [&str; 4] = ["fig7", "fig8", "fig14", "ext"];

/// Instruction budget baselines are recorded at: small enough for CI,
/// matching the golden-test snapshots.
const DEFAULT_BASELINE_INSTS: u64 = 3_000;

/// `repro baseline DIR [TARGET]...` — write one pinned dump per target.
fn cmd_baseline(args: &[String]) -> ExitCode {
    let mut args = scan(&BASELINE, args);
    let insts = args.count("--insts").unwrap_or(DEFAULT_BASELINE_INSTS);
    let jobs = args.count("--jobs").unwrap_or_else(default_jobs);
    let cache_dir = args.path("--cache-dir");
    let progress = args.progress();
    // The first word is the output directory, the rest are targets.
    let mut dir = None;
    let targets = args.positionals(|word| {
        if dir.is_none() {
            dir = Some(PathBuf::from(word));
            return Ok(None);
        }
        resolve_target(word).map(|t| Some((word.to_string(), t)))
    });
    if dir.is_none() {
        args.error("baseline requires an output directory");
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }
    let dir = dir.expect("checked above");
    let mut targets: Vec<_> = targets.into_iter().flatten().collect();
    if targets.is_empty() {
        targets = DEFAULT_BASELINE_TARGETS
            .iter()
            .map(|t| (t.to_string(), resolve_target(t).expect("built-in target")))
            .collect();
    }
    let suite = Suite {
        insts_per_app: insts,
        ..Suite::default()
    };

    for (target, (requested, extensions)) in &targets {
        let execution = match execute(
            &suite, requested, extensions, jobs, 1, &cache_dir, progress, None,
        ) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = dir.join(format!("{target}.json"));
        if let Err(e) = execution.dump.write_to(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote baseline {}", path.display());
    }
    ExitCode::SUCCESS
}

/// `repro diff BASELINE.json CANDIDATE.json` — compare two dumps, exit
/// non-zero on regression.
fn cmd_diff(args: &[String]) -> ExitCode {
    let mut args = scan(&DIFF, args);
    let format = args.format().unwrap_or(Format::Table);
    let mut policy = DiffPolicy::default();
    if let Some(t) = args.number("--rel-tol") {
        policy.rel_tol = t;
    }
    args.parse("--allow", |prefix| {
        policy.allowed_counter_changes.push(prefix.to_string());
        Ok(())
    });
    policy.allow_schema_change = args.given(&["--allow-schema-change"]);
    let paths = args.positionals(|word| Ok(PathBuf::from(word)));
    if paths.len() != 2 {
        args.error(format!(
            "diff expects exactly two dump files, got {}",
            paths.len()
        ));
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }

    let (baseline, candidate) = (&paths[0], &paths[1]);
    let base_doc = match DumpDoc::load(baseline) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cand_doc = match DumpDoc::load(candidate) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = diff_dumps(&base_doc, &cand_doc, &policy);
    match format {
        Format::Table => print!("{}", report.to_table()),
        Format::Json => match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("failed to serialize diff: {e}");
                return ExitCode::FAILURE;
            }
        },
        Format::Csv => print!("{}", report.to_csv()),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro ci-gate --baseline DIR` — replay every baseline at its
/// recorded configuration and diff the fresh run against it.
fn cmd_ci_gate(args: &[String]) -> ExitCode {
    let mut args = scan(&CI_GATE, args);
    let dir = args.path("--baseline");
    let jobs = args.count("--jobs").unwrap_or_else(default_jobs);
    let cache_dir = args.path("--cache-dir");
    let progress = args.progress();
    let mut policy = DiffPolicy::default();
    if let Some(t) = args.number("--rel-tol") {
        policy.rel_tol = t;
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }
    let dir = dir.expect("--baseline is required");

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!(
                "error: cannot read baseline directory {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!(
            "error: no *.json baselines in {} (generate them with `repro baseline {}`)",
            dir.display(),
            dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for file in &files {
        let name = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.display().to_string());
        let base_doc = match DumpDoc::load(file) {
            Ok(d) => d,
            Err(e) => {
                // The bench ratchet lives in the same directory but is
                // gated by `repro bench --ratchet`, not by replay.
                if load_bench_dump(file).is_ok() {
                    eprintln!("[ci-gate] {name}: bench dump, skipped (gated by `repro bench`)");
                    continue;
                }
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        // Frontier dumps carry their own schema tag and replay through
        // the exploration engine instead of the campaign path.
        if base_doc.tags.iter().any(|(p, _)| p == "schema.explore") {
            match replay_frontier(file, &base_doc, jobs, &cache_dir, &policy) {
                Ok(report) => {
                    print!("[{name}] {}", report.to_table());
                    if !report.is_clean() {
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", file.display());
                    failed = true;
                }
            }
            continue;
        }
        let Some(run) = &base_doc.run else {
            eprintln!(
                "error: {} has no `run` section; regenerate it with `repro baseline`",
                file.display()
            );
            failed = true;
            continue;
        };
        let mut requested = Vec::new();
        let mut extensions = Vec::new();
        let mut unknown = false;
        for word in &run.experiments {
            match resolve_target(word) {
                Ok((r, x)) => {
                    requested.extend(r);
                    extensions.extend(x);
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", file.display());
                    unknown = true;
                }
            }
        }
        if unknown {
            failed = true;
            continue;
        }
        let suite = Suite {
            insts_per_app: run.insts,
            seed: run.seed,
        };
        eprintln!(
            "[ci-gate] {name}: replaying {} at --insts {}",
            run.experiments.join(" "),
            run.insts
        );
        let execution = match execute(
            &suite,
            &requested,
            &extensions,
            jobs,
            1,
            &cache_dir,
            progress,
            None,
        ) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        let cand_doc = match DumpDoc::parse(&execution.dump.to_json()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: fresh run produced an unparsable dump: {e}");
                failed = true;
                continue;
            }
        };
        let report = diff_dumps(&base_doc, &cand_doc, &policy);
        print!("[{name}] {}", report.to_table());
        if !report.is_clean() {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Replays the exploration a frontier baseline records (its `explore`
/// section names the space, budget, seed and insts) and diffs the fresh
/// dump against it under `policy`. The replay always runs the built-in
/// space — a baseline recorded under `--sweep` overrides diffs against
/// different `explore.axes.*` tags, which is exactly the "regenerate
/// the baseline" signal the gate exists to raise.
fn replay_frontier(
    file: &std::path::Path,
    base_doc: &DumpDoc,
    jobs: usize,
    cache_dir: &Option<PathBuf>,
    policy: &DiffPolicy,
) -> Result<hetcore::regression::DiffReport, String> {
    use serde::value::Value;
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("cannot read the baseline: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let section = value
        .get("explore")
        .ok_or("frontier dump has no `explore` section; regenerate it with `repro explore`")?;
    let space_name = section
        .get("space")
        .and_then(Value::as_str)
        .ok_or("`explore` section has no `space` name")?;
    if space_name != "fig7" {
        return Err(format!("unknown design space '{space_name}'"));
    }
    let field = |name: &str| -> Result<u64, String> {
        section
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("`explore` section has no integer `{name}`"))
    };
    let cfg = ExploreConfig {
        budget: field("budget")? as usize,
        seed: field("seed")?,
        insts: field("insts")?,
        jobs,
        shards: 1,
        cache_dir: cache_dir.clone(),
        cache_bypass: false,
    };
    eprintln!(
        "[ci-gate] {}: replaying explore --budget {} --seed {} --insts {}",
        file.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.display().to_string()),
        cfg.budget,
        cfg.seed,
        cfg.insts
    );
    let result = explore(&DesignSpace::fig7(), &cfg)?;
    let cand_doc = DumpDoc::parse(&result.to_json())
        .map_err(|e| format!("fresh exploration produced an unparsable dump: {e}"))?;
    Ok(diff_dumps(base_doc, &cand_doc, policy))
}

/// The experiments `repro check` sweeps in its invariant phase: the two
/// targets that exercise both campaign engines (CPU and GPU).
const CHECK_TARGETS: [Experiment; 2] = [Experiment::Fig7, Experiment::Fig10];

/// Instruction budget of each metamorphic fuzz round (each round runs
/// the sampled workload several times, so this stays small).
const FUZZ_ROUND_INSTS: u64 = 3_000;

/// `repro check --trace-in PATH` — validate a recorded trace file's
/// structure; exit non-zero on any malformed line or violated property.
fn check_trace(path: &PathBuf, format: Format) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let (events_seen, violations) = match parse_jsonl(&text) {
        Ok(events) => (events.len(), validate_events(&events)),
        // An unparsable file is itself the (single) finding.
        Err(e) => (0, vec![e]),
    };
    match format {
        Format::Table => {
            for v in &violations {
                println!("{v}");
            }
            println!(
                "repro check: trace {}: {events_seen} event(s), {} violation(s)",
                path.display(),
                violations.len()
            );
        }
        Format::Json | Format::Csv => {
            use serde::value::Value;
            let value = Value::Object(vec![
                ("trace".into(), Value::Str(path.display().to_string())),
                ("events".into(), Value::UInt(events_seen as u64)),
                (
                    "violations".into(),
                    Value::Array(violations.iter().map(|v| Value::Str(v.clone())).collect()),
                ),
            ]);
            match serde_json::to_string_pretty(&value) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("failed to serialize trace report: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro check [--fuzz N] [--seed S]` — run the invariant sweep over a
/// real campaign pass, then N metamorphic fuzz rounds; exit non-zero on
/// any violation. With `--trace-in PATH` it instead validates a trace
/// file recorded by `repro --trace-out` (span structure and
/// job-finished/span matching; see `hetsim_obs::validate_events`).
fn cmd_check(args: &[String]) -> ExitCode {
    let mut args = scan(&CHECK, args);
    let fuzz = args.count("--fuzz").unwrap_or(8);
    let seed = args.int::<u64>("--seed").unwrap_or(42);
    let insts = args.count("--insts").unwrap_or(DEFAULT_BASELINE_INSTS);
    let format = args.format().unwrap_or(Format::Table);
    let jobs = args.count("--jobs").unwrap_or_else(default_jobs);
    let cache_dir = args.path("--cache-dir");
    let progress = args.progress();
    let trace_in = args.path("--trace-in");
    // Trace validation is a pure file check: the flags that shape the
    // campaign/fuzz phases have nothing to act on.
    if trace_in.is_some() && args.given(&["--fuzz", "--seed", "--insts"]) {
        args.error(
            "--trace-in validates an existing trace; it cannot be combined with \
             --fuzz, --seed or --insts",
        );
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }
    if let Some(path) = &trace_in {
        return check_trace(path, format);
    }
    let suite = Suite {
        insts_per_app: insts,
        ..Suite::default()
    };

    // Phase 1: run the real campaigns once and validate every outcome
    // plus the serialized telemetry (where HETSIM_CHECK_PERTURB can
    // inject a fault to prove the layer fires).
    eprintln!("[check] invariant sweep: fig7 + fig10 at --insts {insts}");
    let execution = match execute(
        &suite,
        &CHECK_TARGETS,
        &[],
        jobs,
        1,
        &cache_dir,
        progress,
        None,
    ) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut checker = Checker::new();
    validate_execution(&execution, &mut checker);

    // Phase 2: metamorphic fuzz rounds over random-but-legal workloads.
    eprintln!("[check] fuzzing {fuzz} round(s) from seed {seed}");
    for round in 0..fuzz {
        fuzz_round(seed.wrapping_add(round), FUZZ_ROUND_INSTS, &mut checker);
    }

    let checks = checker.checks_run();
    let violations = checker.into_violations();
    match format {
        Format::Table => {
            for v in &violations {
                println!("{v}");
            }
            println!(
                "repro check: {checks} checks, {} violation(s) ({fuzz} fuzz round(s), seed {seed})",
                violations.len()
            );
        }
        Format::Json | Format::Csv => {
            use serde::value::Value;
            let value = Value::Object(vec![
                ("checks_run".into(), Value::UInt(checks)),
                ("fuzz_rounds".into(), Value::UInt(fuzz)),
                ("seed".into(), Value::UInt(seed)),
                (
                    "violations".into(),
                    Value::Array(
                        violations
                            .iter()
                            .map(|v| {
                                Value::Object(vec![
                                    ("invariant".into(), Value::Str(v.invariant.to_string())),
                                    ("path".into(), Value::Str(v.path.clone())),
                                    ("expected".into(), Value::Str(v.expected.clone())),
                                    ("actual".into(), Value::Str(v.actual.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            match serde_json::to_string_pretty(&value) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("failed to serialize check report: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders a fresh bench run as a short stdout table (stderr already
/// narrated the per-scenario progress).
fn print_bench_table(dump: &hetsim_bench::BenchDump) {
    println!(
        "bench: {} scenario(s), --insts {}, seed {}, {} warmup + {} repeat(s){}",
        dump.scenarios.len(),
        dump.insts,
        dump.seed,
        dump.warmup,
        dump.repeats,
        if dump.quick { " (quick)" } else { "" }
    );
    println!(
        "{:<22} {:>12} {:>12} {:>14}  spread",
        "scenario", "insts", "median_us", "insts/sec"
    );
    for s in &dump.scenarios {
        println!(
            "{:<22} {:>12} {:>12} {:>14.0}  {:.3}{}",
            s.name,
            s.insts,
            s.wall_us,
            s.insts_per_sec,
            s.timing.rel_spread,
            if s.timing.noisy { " (noisy)" } else { "" }
        );
    }
}

/// Two dumps are ratchet-comparable only when they measured the same
/// pinned work: same profile, same budget, same seed. Host differences
/// are fine (that is what the tolerances absorb); workload differences
/// make the insts/sec ratio meaningless.
fn bench_comparable(
    base: &hetsim_bench::BenchDump,
    cand: &hetsim_bench::BenchDump,
) -> Result<(), String> {
    if base.quick != cand.quick || base.insts != cand.insts || base.seed != cand.seed {
        return Err(format!(
            "dumps measured different work (baseline: insts {} seed {} quick {}; \
             candidate: insts {} seed {} quick {}) — rerun with matching \
             --insts/--seed/--quick",
            base.insts, base.seed, base.quick, cand.insts, cand.seed, cand.quick
        ));
    }
    Ok(())
}

/// `repro bench --trend` — the perf trajectory across every pinned
/// `BENCH_*.json` dump in the current directory, ordered by the
/// numeric suffix (the PR sequence that pinned them). One row per
/// scenario, one column per dump, insts/sec throughout, and a final
/// latest/first ratio column.
fn cmd_bench_trend(format: Format) -> ExitCode {
    use serde::value::Value;

    let entries = match std::fs::read_dir(".") {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot read the current directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut files: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            files.push((n, PathBuf::from(name)));
        }
    }
    files.sort();
    if files.is_empty() {
        eprintln!("error: no BENCH_*.json dumps in the current directory");
        return ExitCode::FAILURE;
    }
    let mut dumps: Vec<(String, hetsim_bench::BenchDump)> = Vec::new();
    for (_, path) in &files {
        match load_bench_dump(path) {
            Ok(d) => dumps.push((path.display().to_string(), d)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Dumps pin the same workload across the sequence; if one diverged
    // (a budget change), the ratios still render but mean less.
    let uniform = dumps
        .windows(2)
        .all(|w| w[0].1.insts == w[1].1.insts && w[0].1.seed == w[1].1.seed);
    if !uniform {
        eprintln!(
            "warning: dumps measured different work (--insts/--seed differ); \
             ratios are indicative only"
        );
    }
    // Scenario rows in order of first appearance across the sequence.
    let mut scenarios: Vec<String> = Vec::new();
    for (_, dump) in &dumps {
        for s in &dump.scenarios {
            if !scenarios.contains(&s.name) {
                scenarios.push(s.name.clone());
            }
        }
    }
    let rate = |dump: &hetsim_bench::BenchDump, name: &str| {
        dump.scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.insts_per_sec)
    };

    if format == Format::Json {
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str("hetsim-bench-trend-v1".into())),
            (
                "dumps".into(),
                Value::Array(
                    dumps
                        .iter()
                        .map(|(file, d)| {
                            Value::Object(vec![
                                ("file".into(), Value::Str(file.clone())),
                                ("insts".into(), Value::UInt(d.insts)),
                                ("seed".into(), Value::UInt(d.seed)),
                                (
                                    "scenarios".into(),
                                    Value::Object(
                                        d.scenarios
                                            .iter()
                                            .map(|s| {
                                                (s.name.clone(), Value::Float(s.insts_per_sec))
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("value trees always serialize")
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "bench trend: {} pinned dump(s) ({} .. {}), insts/sec",
        dumps.len(),
        dumps.first().expect("nonempty").0,
        dumps.last().expect("nonempty").0
    );
    print!("{:<22}", "scenario");
    for (file, _) in &dumps {
        print!(" {file:>14}");
    }
    println!(" {:>14}", "latest/first");
    for name in &scenarios {
        print!("{name:<22}");
        let mut first = None;
        let mut last = None;
        for (_, dump) in &dumps {
            match rate(dump, name) {
                Some(r) => {
                    first.get_or_insert(r);
                    last = Some(r);
                    print!(" {r:>14.0}");
                }
                None => print!(" {:>14}", "-"),
            }
        }
        match (first, last) {
            (Some(f), Some(l)) if f > 0.0 => println!(" {:>13.2}x", l / f),
            _ => println!(" {:>14}", "-"),
        }
    }
    ExitCode::SUCCESS
}

fn load_bench_dump(path: &PathBuf) -> Result<hetsim_bench::BenchDump, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    hetsim_bench::BenchDump::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `repro bench` — measure the pinned scenario menu and write/compare
/// `BENCH_*.json` perf dumps (see `hetcore::bench`). Without
/// `--compare`, runs fresh and prints the per-scenario table (or the
/// dump itself with `--format json`). `--compare BASE.json` runs fresh
/// and diffs against the baseline; with a positional `CANDIDATE.json`
/// it diffs the two files without running anything. Exits non-zero
/// when any scenario regressed past the noise-aware tolerance.
fn cmd_bench(args: &[String]) -> ExitCode {
    let mut args = scan(&BENCH, args);
    let mut cfg = if args.given(&["--quick"]) {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    if let Some(n) = args.count("--insts") {
        // An explicit budget wins over --quick wherever it appears.
        cfg.insts = n;
    }
    if let Some(s) = args.int("--seed") {
        cfg.seed = s;
    }
    if let Some(w) = args.int("--warmup") {
        cfg.warmup = w;
    }
    if let Some(r) = args.count("--repeats") {
        cfg.repeats = r;
    }
    cfg.jobs = args.count("--jobs").unwrap_or_else(default_jobs);
    let format = args.format().unwrap_or(Format::Table);
    let out = args.path("--out");
    let compare_base = args.path("--compare");
    let rel_tol = args.number("--rel-tol");
    let ratchet = args.given(&["--ratchet"]);
    let trend = args.given(&["--trend"]);
    let mut seen = 0;
    let candidate = args
        .positionals(|word| {
            seen += 1;
            match seen {
                1 => Ok(PathBuf::from(word)),
                _ => Err(format!("unexpected argument '{word}'")),
            }
        })
        .pop();
    if candidate.is_some() && compare_base.is_none() {
        args.error("a positional CANDIDATE.json requires --compare BASELINE.json");
    }
    if candidate.is_some() && args.given(&["--out", "--insts", "--quick"]) {
        args.error(
            "comparing two existing dumps runs nothing; it cannot be combined with \
             --out, --insts or --quick",
        );
    }
    if ratchet && rel_tol.is_some() {
        args.error("--ratchet pins the CI tolerance; it cannot be combined with --rel-tol");
    }
    let measures = [
        "--quick",
        "--insts",
        "--seed",
        "--warmup",
        "--repeats",
        "--jobs",
        "--out",
        "--compare",
        "--rel-tol",
        "--ratchet",
    ];
    if trend && (candidate.is_some() || args.given(&measures)) {
        args.error(
            "--trend reads the existing BENCH_*.json dumps and runs nothing; it cannot \
             be combined with measurement or comparison flags",
        );
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }
    if trend {
        return cmd_bench_trend(format);
    }

    let mut policy = hetsim_bench::ComparePolicy::default();
    if ratchet {
        policy = hetsim_bench::ComparePolicy::CI_RATCHET;
    }
    if let Some(t) = rel_tol {
        policy.rel_tol = t;
    }

    // Pure file diff: both dumps already exist.
    if let (Some(base_path), Some(cand_path)) = (&compare_base, &candidate) {
        let (base, cand) = match (load_bench_dump(base_path), load_bench_dump(cand_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (b, c) => {
                for e in [b.err(), c.err()].into_iter().flatten() {
                    eprintln!("error: {e}");
                }
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = bench_comparable(&base, &cand) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        let report = hetsim_bench::compare(&base, &cand, &policy);
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Measure fresh.
    let dump = run_bench(&cfg);

    if let Some(path) = &out {
        if let Err(e) = write_atomic(path, &dump.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote bench dump to {}", path.display());
    }

    if let Some(base_path) = &compare_base {
        let base = match load_bench_dump(base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = bench_comparable(&base, &dump) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        let report = hetsim_bench::compare(&base, &dump, &policy);
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    match format {
        Format::Table => print_bench_table(&dump),
        Format::Json | Format::Csv => print!("{}", dump.to_json()),
    }
    ExitCode::SUCCESS
}

/// `repro explore` — design-space exploration over the fig7 grid: a
/// budget-capped Pareto-frontier search (see `hetcore::explore`).
/// Prints the frontier in the requested format; `--frontier-out PATH`
/// additionally writes the full frontier dump (unless `--format json`,
/// which already prints that dump on stdout).
fn cmd_explore(args: &[String]) -> ExitCode {
    let mut args = scan(&EXPLORE, args);
    // The built-in space is the only one; `--space` just names it.
    args.choice("--space");
    let mut space = DesignSpace::fig7();
    args.parse("--sweep", |spec| space.apply_sweep(spec));
    let cfg = ExploreConfig {
        budget: args
            .count("--budget")
            .unwrap_or(hetcore::explore::DEFAULT_BUDGET),
        seed: args.int("--seed").unwrap_or(42),
        insts: args.count("--insts").unwrap_or(DEFAULT_EXPLORE_INSTS),
        jobs: args.count("--jobs").unwrap_or_else(default_jobs),
        shards: args.count("--shards").unwrap_or(1),
        cache_dir: args.path("--cache-dir"),
        cache_bypass: false,
    };
    let format = args.format();
    let frontier_out = args.path("--frontier-out");
    if format == Some(Format::Json) && frontier_out.is_some() {
        args.error(
            "--format json writes the frontier dump to stdout; it cannot be combined with \
             --frontier-out (pick one destination)",
        );
    }
    // Cross-axis constraints (DVFS reachability, ROB vs. issue width)
    // are validated with the sweeps applied, before anything runs.
    if let Err(e) = space.validate() {
        args.error(e);
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }

    let result = match explore(&space, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &frontier_out {
        if let Err(e) = result.write_to(path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote frontier dump to {}", path.display());
    }
    match format.unwrap_or(Format::Table) {
        Format::Table => print!("{}", result.frontier_report()),
        Format::Csv => print!("{}", result.frontier_report().to_csv()),
        Format::Json => println!("{}", result.to_json()),
    }
    ExitCode::SUCCESS
}

/// The per-design roll-up: units merged per `(design, unit kind)` —
/// `core` and `cu` stay separate rows because CPU chips and GPU
/// designs share names — with total attributed cycles and each
/// top-down class as a percentage of them.
fn render_profile_table(profile: &CycleProfile, insts: u64, seed: u64) -> String {
    use std::fmt::Write as _;
    let kind_of = |unit: &str| {
        unit.trim_end_matches(|c: char| c.is_ascii_digit())
            .to_string()
    };
    let mut groups: Vec<(
        String,
        String,
        u64,
        u64,
        hetsim_stats::attribution::ClassCounts,
    )> = Vec::new();
    for row in profile.rows() {
        let kind = kind_of(&row.unit);
        match groups
            .iter_mut()
            .find(|(d, k, ..)| d == &row.design && k == &kind)
        {
            Some((_, _, units, cycles, classes)) => {
                *units += 1;
                *cycles += row.cycles;
                classes.merge(&row.classes);
            }
            None => groups.push((row.design.clone(), kind, 1, row.cycles, row.classes)),
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} unit(s) across {} design row(s), --insts {insts}, seed {seed}",
        profile.rows().len(),
        groups.len()
    );
    let _ = write!(
        out,
        "{:<12} {:<5} {:>5} {:>14}",
        "design", "unit", "n", "cycles"
    );
    for class in CycleClass::ALL {
        let _ = write!(out, " {:>15}", class.name());
    }
    out.push('\n');
    for (design, kind, units, cycles, classes) in &groups {
        let _ = write!(out, "{design:<12} {kind:<5} {units:>5} {cycles:>14}");
        for class in CycleClass::ALL {
            let pct = if *cycles > 0 {
                100.0 * classes.get(class) as f64 / *cycles as f64
            } else {
                0.0
            };
            let _ = write!(out, " {:>14.1}%", pct);
        }
        out.push('\n');
    }
    out
}

/// `repro profile` — run campaign experiments (default: fig7 + fig10,
/// the CPU and GPU campaigns) with top-down cycle attribution enabled
/// and render the per-design roll-up, the raw document, or folded
/// stacks. The cache is never consulted, so every job simulates and
/// the document covers the whole campaign, at any `--shards N`.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut args = scan(&PROFILE, args);
    let mut suite = Suite::default();
    if args.given(&["--quick"]) {
        suite.insts_per_app = QUICK_INSTS;
    }
    if let Some(n) = args.count("--insts") {
        // An explicit budget wins over --quick wherever it appears.
        suite.insts_per_app = n;
    }
    if let Some(s) = args.int("--seed") {
        suite.seed = s;
    }
    let jobs = args.count("--jobs").unwrap_or_else(default_jobs);
    let shards = args.count("--shards").unwrap_or(1);
    let format = args.choice("--format").unwrap_or("table");
    let out = args.path("--out");
    let counters_out = args.path("--counters-out");
    let mut requested = args.positionals(experiment);
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }
    if requested.is_empty() {
        requested = vec![Experiment::Fig7, Experiment::Fig10];
    }

    // No cache directory: every job simulates, so the document covers
    // the whole campaign (a warm cache would replay jobs without
    // attributing anything). The collector is process-global, so every
    // shard's rows land in the one document.
    attribution::set_enabled(true);
    if let Err(e) = execute(
        &suite,
        &requested,
        &[],
        jobs,
        shards,
        &None,
        Progress::Quiet,
        None,
    ) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let profile = collector::take();

    if let Some(path) = &counters_out {
        let json = serde_json::to_string_pretty(&profile.counter_track_doc())
            .expect("value trees always serialize");
        if let Err(e) = write_atomic(path, &json) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote Perfetto counter tracks to {} — load in Perfetto or chrome://tracing",
            path.display()
        );
    }
    let rendered = match format {
        "json" => {
            let mut s = serde_json::to_string_pretty(&profile.to_value())
                .expect("value trees always serialize");
            s.push('\n');
            s
        }
        "folded" => profile.folded(),
        _ => render_profile_table(&profile, suite.insts_per_app, suite.seed),
    };
    match &out {
        Some(path) => {
            if let Err(e) = write_atomic(path, &rendered) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote cycle profile ({} unit(s)) to {}",
                profile.rows().len(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

/// `repro trace-export IN.jsonl OUT.json` — convert a recorded JSONL
/// trace into Chrome trace-event JSON, loadable in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
fn cmd_trace_export(args: &[String]) -> ExitCode {
    let mut args = scan(&TRACE_EXPORT, args);
    let paths = args.positionals(|word| Ok(PathBuf::from(word)));
    if paths.len() < 2 {
        args.error(format!(
            "trace-export expects IN.jsonl [IN2.jsonl]... and OUT.json, got {} path(s)",
            paths.len()
        ));
    }
    if let Err(errors) = args.finish() {
        return fail(&errors);
    }
    let output = paths.last().expect("length checked").clone();
    // Multiple inputs (traces of separate runs) stitch onto disjoint
    // track lanes before export; one input passes through untouched.
    let inputs = match paths[..paths.len() - 1]
        .iter()
        .map(|input| read_trace(input))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = stitch_traces(inputs);
    let chrome = chrome_trace(&events);
    let json = match serde_json::to_string_pretty(&chrome) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to serialize Chrome trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_atomic(&output, &json) {
        eprintln!("error: cannot write {}: {e}", output.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote Chrome trace ({} event(s)) to {} — load it in Perfetto or chrome://tracing",
        events.len(),
        output.display()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => cmd_diff(&args[1..]),
        Some("baseline") => cmd_baseline(&args[1..]),
        Some("ci-gate") => cmd_ci_gate(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("trace-export") => cmd_trace_export(&args[1..]),
        _ => cmd_run(&args),
    }
}
