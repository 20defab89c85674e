//! The measurement loops: the untraced run (end-to-end metrics) and the
//! traced run (per-layer metrics and the tracing overhead).
//!
//! Both repeat whole batches until the time budget is spent and report
//! medians across repetitions. Every cold batch runs on a freshly spawned
//! thread: with one worker the runner executes jobs inline on its caller,
//! and the trace memo is thread-local, so a batch repeated on one thread
//! would replay the previous repetition's traces instead of generating
//! them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetcore::explore::DEFAULT_EXPLORE_INSTS;
use hetcore::{explore, CpuOutcome, DesignSpace, ExploreConfig, ExploreResult, GpuOutcome};
use hetsim_runner::{Job, JobKey, ResultCache, Runner};

use crate::gate::{digest, Gate};
use crate::paper;
use crate::stats::{median, pct_over, ratio};
use crate::sys::{peak_rss_mb, process_cpu_time};
use crate::traced::{Totals, Tracer};
use crate::workload::{explore_specs, JobSpec, Outcome, Workload, EXPLORE_BUDGET, WORKERS};

/// Fewest repetitions of the untraced loop, however short the budget.
const MIN_REPS: usize = 3;
/// Fewest (untraced, traced) pairs of the traced loop.
const MIN_PAIRS: usize = 2;
/// Set-ups timed per cold batch: one set-up takes milliseconds, so a
/// single sample per batch would leave `setup_s` at the mercy of a few
/// scheduler hiccups.
const SETUPS_PER_REP: usize = 10;
/// Warm reruns timed per cold batch, for the same reason.
const WARM_RERUNS_PER_REP: usize = 10;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports besides the gate's counts.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// The traced run's spans, as a Chrome trace-event document.
    pub chrome_trace: Option<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// The path of the cache directory `name` under the run's work
/// directory `work`, emptied.
fn fresh(work: &Path, name: &str) -> PathBuf {
    let path = work.join(name);
    match std::fs::remove_dir_all(&path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot empty {}: {e}", path.display()),
    }
    path
}

/// Runs `f` on a freshly spawned thread and returns its result with the
/// wall time and process CPU time it took, or the panic message.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> Result<(R, f64, f64), String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            let wall = Instant::now();
            let cpu = process_cpu_time();
            let out = f();
            let cpu = (process_cpu_time() - cpu).as_secs_f64();
            (out, wall.elapsed().as_secs_f64(), cpu)
        })
        .join()
        .map_err(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into())
        })
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Counts repetitions: at least `min` run, and more while the time
/// budget lasts, whether or not a repetition succeeded.
struct Repetitions {
    start: Instant,
    budget: Duration,
    min: usize,
    started: usize,
}

impl Repetitions {
    fn new(min: usize, budget: Duration) -> Self {
        Repetitions {
            start: Instant::now(),
            budget,
            min,
            started: 0,
        }
    }

    /// Whether to start another repetition.
    fn next(&mut self) -> bool {
        let go = self.started < self.min || self.start.elapsed() < self.budget;
        self.started += 1;
        go
    }
}

/// A campaign batch, set up: the job list with its keys and the
/// runners, the warm one with its on-disk cache.
struct Plan<T> {
    specs: Vec<JobSpec>,
    cold: Vec<Job<T>>,
    cold_runner: Runner<T>,
    warm_runner: Runner<T>,
}

impl<T: Outcome> Plan<T> {
    /// The benchmark's set-up step, timed as `setup_s`.
    fn new(w: Workload, seed: u64, cache_dir: &Path) -> Plan<T> {
        let specs = w.specs(seed);
        let cold = specs.iter().map(T::job).collect();
        Plan {
            specs,
            cold,
            cold_runner: Runner::new(WORKERS).with_cache_bypass(true),
            warm_runner: warm_runner(cache_dir),
        }
    }
}

/// Reruns `specs` against the warm on-disk cache through `runner`, whose
/// in-memory layer starts empty; the job list is built before timing
/// starts. Returns the outcomes, the process CPU time, and how many jobs
/// the runner had to simulate.
fn warm_rerun<T: Outcome>(specs: &[JobSpec], runner: Runner<T>) -> (Vec<T>, f64, u64) {
    let jobs = specs.iter().map(T::job).collect();
    let (outcomes, cpu) = cpu_timed(|| runner.run(jobs));
    (outcomes, cpu, runner.last_stats().executed)
}

/// Runs `f` and returns its result with the process CPU time it took.
fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let cpu = process_cpu_time();
    let out = f();
    (out, secs(process_cpu_time() - cpu))
}

/// A single-worker runner over the on-disk cache at `dir`.
fn warm_runner<T: Outcome>(dir: &Path) -> Runner<T> {
    Runner::new(WORKERS)
        .with_cache_dir(dir)
        .unwrap_or_else(|e| panic!("cache dir {}: {e}", dir.display()))
}

/// Times [`SETUPS_PER_REP`] set-ups, keeping the last.
fn timed_setups<P>(samples: &mut Vec<f64>, mut setup: impl FnMut() -> P) -> P {
    let mut plan = None;
    for _ in 0..SETUPS_PER_REP {
        let t = Instant::now();
        let p = setup();
        samples.push(secs(t.elapsed()));
        plan = Some(p);
    }
    plan.expect("at least one set-up")
}

/// Cold batch of a plan on a fresh thread: outcomes, wall s, CPU s.
fn cold_batch<T: Outcome>(
    cold: Vec<Job<T>>,
    runner: &Runner<T>,
) -> Result<(Vec<T>, f64, f64), String> {
    on_fresh_thread(move || runner.run(cold))
}

/// Stores `outcomes` in the on-disk cache at `dir` under their jobs' keys.
fn populate<T: Outcome>(dir: &Path, keys: &[JobKey], outcomes: &[T]) {
    let cache = ResultCache::<T>::on_disk(dir)
        .unwrap_or_else(|e| panic!("cache dir {}: {e}", dir.display()));
    for (key, outcome) in keys.iter().zip(outcomes) {
        cache.put(*key, outcome);
    }
}

/// The untraced run's samples. Batches are timed in process CPU time.
/// On a shared virtual machine, wall time also counts the time the host
/// runs other guests on this one's CPUs: in one run on a 2-vCPU guest the
/// cold batches' wall times spread from 0.99 to 1.74 s while their CPU
/// times spread from 0.93 to 1.05 s. The median wall time is printed as
/// a line, not reported as a metric.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    /// CPU time of each warm rerun.
    warm: Vec<f64>,
    /// Peak resident memory through the first cold batch, the footprint
    /// of one campaign. Later repetitions would add whatever freed heap
    /// the allocator kept from the batches before, which varies from run
    /// to run.
    peak_rss_mb: Option<f64>,
}

impl Samples {
    /// Records one cold batch.
    fn cold(&mut self, wall: f64, cpu: f64) {
        self.wall.push(wall);
        self.cpu.push(cpu);
        self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
    }
}

impl Samples {
    fn report(&self, report: &mut Report, paper_err: Option<f64>) {
        for (name, samples) in [
            ("wall_s", &self.wall),
            ("cpu_s", &self.cpu),
            ("warm_cpu_s", &self.warm),
            ("setup_s", &self.setup),
        ] {
            let shown: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
            report.lines.push(format!(
                "{name}: median of {} samples [{}]",
                samples.len(),
                shown.join(" ")
            ));
        }
        report.lines.push(format!(
            "wall_s = {} s (median; not a metric, see README)",
            median(&self.wall)
        ));
        report.metric("cpu_s", median(&self.cpu), "s");
        report.metric("warm_cpu_s", median(&self.warm), "s");
        report.metric("setup_s", median(&self.setup), "s");
        let rss = self.peak_rss_mb.expect("a cold batch ran");
        report.metric("peak_rss_mb", rss, "MB");
        if let Some(err) = paper_err {
            // Reported on the two workloads that regenerate paper figures;
            // not an end-to-end metric of BENCHMARK.json, which every
            // workload must report.
            report.lines.push(format!(
                "paper_err_pct = {err:.4} % (figure means vs paper_reference.txt)"
            ));
        }
    }
}

/// The untraced run: end-to-end metrics of `w`.
pub fn untraced(w: Workload, seed: u64, budget: Duration, work: &Path, gate: &mut Gate) -> Report {
    match w {
        Workload::CpuCampaign => {
            campaign::<CpuOutcome>(w, seed, budget, work, gate, |o| Some(paper::cpu_err(o)))
        }
        Workload::SeedSweep => campaign::<CpuOutcome>(w, seed, budget, work, gate, |_| None),
        Workload::GpuCampaign => {
            campaign::<GpuOutcome>(w, seed, budget, work, gate, |o| Some(paper::gpu_err(o)))
        }
        Workload::ExploreSweep => explore_sweep(seed, budget, work, gate),
    }
}

fn campaign<T: Outcome>(
    w: Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
    gate: &mut Gate,
    paper_err: impl Fn(&[T]) -> Option<f64>,
) -> Report {
    let cache_dir = fresh(work, "warm-cache");
    let mut samples = Samples::default();
    let mut reference: Option<Vec<T>> = None;
    let mut reps = Repetitions::new(MIN_REPS, budget);
    while reps.next() {
        let plan = timed_setups(&mut samples.setup, || Plan::<T>::new(w, seed, &cache_dir));
        let jobs = plan.specs.len();

        match cold_batch(plan.cold, &plan.cold_runner) {
            Ok((outcomes, wall, cpu)) => {
                samples.cold(wall, cpu);
                let checked = gate.batch("cold", outcomes, reference.as_deref(), jobs);
                if reference.is_none() && checked.len() == jobs {
                    let keys: Vec<JobKey> = plan.specs.iter().map(JobSpec::key).collect();
                    populate(&cache_dir, &keys, &checked);
                    gate.pinned(w, seed, &digest(&checked));
                    reference = Some(checked);
                }
            }
            Err(panic) => gate.fail(jobs as u64, format!("cold batch panicked: {panic}")),
        }

        if reference.is_some() {
            let mut runner = Some(plan.warm_runner);
            for _ in 0..WARM_RERUNS_PER_REP {
                let runner = runner.take().unwrap_or_else(|| warm_runner(&cache_dir));
                let (outcomes, cpu, executed) = warm_rerun(&plan.specs, runner);
                samples.warm.push(cpu);
                gate.check(executed == 0, || {
                    format!("warm rerun executed {executed} simulations")
                });
                gate.batch("warm", outcomes, reference.as_deref(), jobs);
            }
        }
    }

    let mut report = Report::default();
    match &reference {
        Some(reference) => {
            report.lines.push(format!("digest {}", digest(reference)));
            samples.report(&mut report, paper_err(reference));
        }
        None => report.lines.push("no cold batch completed".into()),
    }
    report
}

/// An exploration's evaluated points and frontier, as comparable text.
fn frontier_text(result: &ExploreResult) -> String {
    let mut text = String::new();
    for p in &result.evaluated {
        text += &format!(
            "{} {:?} {:?} {:?} {}\n",
            p.candidate.label(),
            p.time_s,
            p.energy_j,
            p.ed2,
            p.committed
        );
    }
    text + &format!("frontier {:?}\n", result.frontier)
}

/// The exploration set-up: the design space (profiles validated) and the
/// search configuration with its fresh cache directory.
fn explore_setup(seed: u64, cache_dir: &Path) -> (DesignSpace, ExploreConfig) {
    let space = DesignSpace::fig7();
    space.validate().expect("the built-in space is valid");
    std::fs::create_dir_all(cache_dir)
        .unwrap_or_else(|e| panic!("cache dir {}: {e}", cache_dir.display()));
    let cfg = ExploreConfig {
        budget: EXPLORE_BUDGET,
        seed,
        insts: DEFAULT_EXPLORE_INSTS,
        jobs: WORKERS,
        shards: 1,
        cache_dir: Some(cache_dir.to_path_buf()),
        cache_bypass: false,
    };
    (space, cfg)
}

/// Every job outcome a search wrote to `cache_dir`, in evaluation order
/// (a missing entry shortens the list, failing the batch).
fn explore_outcomes(result: &ExploreResult, cache_dir: &Path) -> (Vec<JobSpec>, Vec<CpuOutcome>) {
    let specs = explore_specs(result);
    let cache = ResultCache::<CpuOutcome>::on_disk(cache_dir)
        .unwrap_or_else(|e| panic!("cache dir {}: {e}", cache_dir.display()));
    let outcomes = specs.iter().filter_map(|s| cache.get(s.key())).collect();
    (specs, outcomes)
}

/// A cold search's outcomes, checked: one cache entry per (candidate,
/// app) job, each valid and equal to the reference's.
fn check_cold_search(
    gate: &mut Gate,
    result: &ExploreResult,
    cache_dir: &Path,
    reference: Option<&(String, Vec<CpuOutcome>)>,
) -> (String, Vec<CpuOutcome>) {
    let (specs, outcomes) = explore_outcomes(result, cache_dir);
    let executed = result.runner.executed;
    gate.check(executed == specs.len() as u64, || {
        format!("cold search executed {executed} of {} jobs", specs.len())
    });
    let text = frontier_text(result);
    if let Some((frontier, _)) = reference {
        gate.check(text == *frontier, || {
            "frontier differs from the reference search".into()
        });
    }
    let outcomes = gate.batch("cold", outcomes, reference.map(|r| &r.1[..]), specs.len());
    (text, outcomes)
}

fn explore_sweep(seed: u64, budget: Duration, work: &Path, gate: &mut Gate) -> Report {
    let jobs_per_search = (EXPLORE_BUDGET * DesignSpace::fig7().apps.len()) as u64;
    let mut samples = Samples::default();
    let mut reference: Option<(String, Vec<CpuOutcome>)> = None;
    let mut reps = Repetitions::new(MIN_REPS, budget);
    while reps.next() {
        let cache_dir = fresh(work, "explore-cache");
        let (space, cfg) = timed_setups(&mut samples.setup, || explore_setup(seed, &cache_dir));

        let cold = match on_fresh_thread(|| explore(&space, &cfg)) {
            Ok((Ok(result), wall, cpu)) => {
                samples.cold(wall, cpu);
                result
            }
            Ok((Err(e), ..)) => {
                gate.fail(jobs_per_search, format!("search failed: {e}"));
                continue;
            }
            Err(panic) => {
                gate.fail(jobs_per_search, format!("search panicked: {panic}"));
                continue;
            }
        };
        let checked = check_cold_search(gate, &cold, &cache_dir, reference.as_ref());
        if reference.is_none() {
            let outcomes_json = serde_json::to_string(&checked.1).expect("serializable outcomes");
            gate.pinned(
                Workload::ExploreSweep,
                seed,
                &digest(&(checked.0.clone() + &outcomes_json)),
            );
            reference = Some(checked);
        }

        for _ in 0..WARM_RERUNS_PER_REP {
            let (warm, cpu) = cpu_timed(|| explore(&space, &cfg));
            samples.warm.push(cpu);
            match warm {
                Ok(warm) => {
                    let executed = warm.runner.executed;
                    gate.check(executed == 0, || {
                        format!("warm search executed {executed} simulations")
                    });
                    let same = reference
                        .as_ref()
                        .is_some_and(|r| r.0 == frontier_text(&warm));
                    gate.check(same, || "warm frontier differs from the cold one".into());
                }
                Err(e) => gate.fail(jobs_per_search, format!("warm search failed: {e}")),
            }
        }
    }

    let mut report = Report::default();
    match &reference {
        Some((text, outcomes)) => {
            let outcomes_json = serde_json::to_string(outcomes).expect("serializable outcomes");
            report.lines.push(format!(
                "digest {}",
                digest(&(text.clone() + &outcomes_json))
            ));
            samples.report(&mut report, None);
        }
        None => report.lines.push("no cold search completed".into()),
    }
    report
}

// ---------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------

/// The names every span-derived metric is computed from, in the layers
/// the coverage share counts (the memory layer is measured after the
/// batch, and the runner's share is what the others leave).
const LEAF_LAYERS: [&str; 5] = ["trace.", "cpu.", "gpu.", "device.", "power."];

/// One traced repetition: its totals and wall time.
struct TracedRep {
    totals: Totals,
    wall: f64,
    job_keys_us: f64,
}

fn total(totals: &Totals, name: &str) -> crate::traced::Total {
    totals.get(name).copied().unwrap_or_default()
}

/// The span-derived per-layer metrics of one traced repetition.
fn rep_metrics(rep: &TracedRep) -> Vec<Metric> {
    let t = |name| total(&rep.totals, name);
    let s = |name| secs(t(name).time);
    let count = |name| t(name).count as f64;
    let mean_us = |name| ratio(s(name) * 1e6, t(name).calls as f64);
    let power_calls = (t("power.energy").calls + t("power.model").calls) as f64;
    let leaf: f64 = rep
        .totals
        .iter()
        .filter(|(name, _)| LEAF_LAYERS.iter().any(|layer| name.starts_with(layer)))
        .map(|(_, total)| secs(total.time))
        .sum();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("trace.gen_s", s("trace.gen"), "s"),
        m("trace.gen_insts", count("trace.gen_insts"), "count"),
        m(
            "trace.memo_hit_ratio",
            ratio(
                t("trace.hit").calls as f64,
                (t("trace.hit").calls + t("trace.gen").calls) as f64,
            ),
            "ratio",
        ),
        m("trace.memo_mb", count("trace.memo_bytes") / 1e6, "MB"),
        m("cpu.step_s", s("cpu.step"), "s"),
        m("cpu.prewarm_s", s("cpu.prewarm"), "s"),
        m("cpu.committed", count("cpu.committed"), "count"),
        m("cpu.cycles", count("cpu.cycles"), "count"),
        m(
            "cpu.step_ns_per_inst",
            ratio(s("cpu.step") * 1e9, count("cpu.committed")),
            "ns",
        ),
        m(
            "cpu.skipped_cycle_ratio",
            ratio(count("cpu.skipped_cycles"), count("cpu.run_cycles")),
            "ratio",
        ),
        m("gpu.kernel_gen_s", s("gpu.kernel_gen"), "s"),
        m("gpu.step_s", s("gpu.step"), "s"),
        m("gpu.wavefront_insts", count("gpu.wavefront_insts"), "count"),
        m("gpu.cycles", count("gpu.cycles"), "count"),
        m(
            "gpu.step_ns_per_wave_inst",
            ratio(s("gpu.step") * 1e9, count("gpu.wavefront_insts")),
            "ns",
        ),
        m(
            "gpu.skipped_cycle_ratio",
            ratio(count("gpu.skipped_cycles"), count("gpu.cu_cycles")),
            "ratio",
        ),
        m(
            "device.vf_inversions",
            t("device.operating_point").calls as f64,
            "count",
        ),
        m(
            "device.operating_point_us",
            mean_us("device.operating_point"),
            "us",
        ),
        m("power.energy_evals", power_calls, "count"),
        m(
            "power.energy_eval_us",
            ratio((s("power.energy") + s("power.model")) * 1e6, power_calls),
            "us",
        ),
        m("runner.overhead_s", s("runner.run") - s("job"), "s"),
        m("setup.job_keys_us", rep.job_keys_us, "us"),
        m(
            "bench.layer_coverage_pct",
            100.0 * ratio(leaf, rep.wall),
            "%",
        ),
    ]
}

/// Medians across repetitions of each span-derived metric.
fn median_metrics(reps: &[TracedRep]) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = reps.iter().map(rep_metrics).collect();
    per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Metric {
            value: median(&per_rep.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..first.clone()
        })
        .collect()
}

/// Builds the traced jobs of `specs`, timing the key computation.
fn traced_jobs<T: Outcome>(tracer: &Arc<Tracer>, specs: &[JobSpec]) -> (Vec<Job<T>>, f64) {
    let t = Instant::now();
    let keys: Vec<JobKey> = specs.iter().map(JobSpec::key).collect();
    let job_keys_us = secs(t.elapsed()) * 1e6;
    let jobs = specs
        .iter()
        .zip(keys)
        .map(|(spec, key)| {
            let tracer = Arc::clone(tracer);
            let spec = spec.clone();
            Job::new(key, spec.label(), move || {
                tracer.time("job", || T::traced(&tracer, &spec))
            })
        })
        .collect();
    (jobs, job_keys_us)
}

/// One traced batch of `specs` through `runner`, on a fresh thread.
fn traced_batch<T: Outcome>(
    specs: &[JobSpec],
    runner: &Runner<T>,
) -> Result<(Vec<T>, Arc<Tracer>, TracedRep), String> {
    let tracer = Arc::new(Tracer::default());
    let (jobs, job_keys_us) = traced_jobs::<T>(&tracer, specs);
    let cpu_skipped = hetsim_cpu::telemetry::skipped_cycles();
    let gpu_skipped = hetsim_gpu::telemetry::skipped_cycles();
    let (outcomes, wall, _) = on_fresh_thread(|| tracer.time("runner.run", || runner.run(jobs)))?;
    tracer.count(
        "cpu.skipped_cycles",
        hetsim_cpu::telemetry::skipped_cycles() - cpu_skipped,
    );
    tracer.count(
        "gpu.skipped_cycles",
        hetsim_gpu::telemetry::skipped_cycles() - gpu_skipped,
    );
    let rep = TracedRep {
        totals: tracer.totals(),
        wall,
        job_keys_us,
    };
    Ok((outcomes, tracer, rep))
}

/// The memory layer's metrics, measured on the batch's own address
/// streams, and the runner's cache metrics, measured by storing and
/// loading every reference outcome.
fn probe_layers<T: Outcome>(
    tracer: &Tracer,
    specs: &[JobSpec],
    reference: &[T],
    cache_dir: &Path,
    gate: &mut Gate,
    report: &mut Report,
) {
    on_fresh_thread(|| tracer.replay_memory()).expect("memory replay");
    let keys: Vec<JobKey> = specs.iter().map(JobSpec::key).collect();
    let cache = ResultCache::<T>::on_disk(cache_dir)
        .unwrap_or_else(|e| panic!("cache dir {}: {e}", cache_dir.display()));
    let mut entry_bytes = 0;
    for (key, outcome) in keys.iter().zip(reference) {
        tracer.time("runner.cache_put", || cache.put(*key, outcome));
        let path = cache.path_of(*key).expect("on-disk cache");
        entry_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    let cold_cache = ResultCache::<T>::on_disk(cache_dir).expect("cache dir exists");
    let loaded: Vec<T> = keys
        .iter()
        .filter_map(|key| tracer.time("runner.cache_get", || cold_cache.get(*key)))
        .collect();
    gate.batch("cache-get", loaded, Some(reference), reference.len());

    let totals = tracer.totals();
    let t = |name| total(&totals, name);
    let mean_us = |name| ratio(secs(t(name).time) * 1e6, t(name).calls as f64);
    let count = |name| t(name).count as f64;
    report.metric("mem.accesses", count("mem.accesses"), "count");
    report.metric(
        "mem.dl1_miss_ratio",
        ratio(count("mem.dl1_misses"), count("mem.dl1_accesses")),
        "ratio",
    );
    report.metric(
        "mem.l2_miss_ratio",
        ratio(count("mem.l2_misses"), count("mem.l2_accesses")),
        "ratio",
    );
    report.metric("mem.dram_accesses", count("mem.dram_accesses"), "count");
    report.metric(
        "mem.access_ns",
        ratio(secs(t("mem.access").time) * 1e9, count("mem.accesses")),
        "ns",
    );
    report.metric("runner.cache_put_us", mean_us("runner.cache_put"), "us");
    report.metric("runner.cache_get_us", mean_us("runner.cache_get"), "us");
    report.metric("runner.entry_bytes", entry_bytes as f64, "B");
}

/// Checks that the traced counts equal the untraced outcomes' counters.
fn check_counts(gate: &mut Gate, layer: &[Metric], expected: &[(&str, u64)]) {
    for (name, want) in expected {
        let got = layer
            .iter()
            .find(|m| m.name == *name)
            .map_or(0.0, |m| m.value);
        gate.check(got == *want as f64, || {
            format!("traced {name} = {got}, untraced outcomes sum to {want}")
        });
    }
}

fn cpu_counts(outcomes: &[CpuOutcome]) -> Vec<(&'static str, u64)> {
    vec![
        ("cpu.committed", outcomes.iter().map(|o| o.committed).sum()),
        ("cpu.cycles", outcomes.iter().map(|o| o.stats.cycles).sum()),
    ]
}

fn gpu_counts(outcomes: &[GpuOutcome]) -> Vec<(&'static str, u64)> {
    vec![
        (
            "gpu.wavefront_insts",
            outcomes.iter().map(|o| o.stats.wavefront_insts).sum(),
        ),
        ("gpu.cycles", outcomes.iter().map(|o| o.stats.cycles).sum()),
    ]
}

/// The traced run: per-layer metrics of `w` and the tracing overhead.
pub fn traced(w: Workload, seed: u64, budget: Duration, work: &Path, gate: &mut Gate) -> Report {
    match w {
        Workload::CpuCampaign | Workload::SeedSweep => {
            traced_campaign::<CpuOutcome>(w, seed, budget, work, gate, cpu_counts)
        }
        Workload::GpuCampaign => {
            traced_campaign::<GpuOutcome>(w, seed, budget, work, gate, gpu_counts)
        }
        Workload::ExploreSweep => traced_explore(seed, budget, work, gate),
    }
}

/// The metrics every traced run reports last, in order.
fn finish(
    report: &mut Report,
    reps: &[TracedRep],
    untraced_walls: &[f64],
    runner: [f64; 3],
    explore: [f64; 3],
) -> Vec<Metric> {
    let layer = median_metrics(reps);
    let [jobs, executed, warm_hit_ratio] = runner;
    let [candidates, sim_s, overhead_s] = explore;
    let traced_walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    report.metrics.extend(layer.iter().cloned());
    report.metric("runner.jobs", jobs, "count");
    report.metric("runner.executed", executed, "count");
    report.metric("runner.warm_hit_ratio", warm_hit_ratio, "ratio");
    report.metric("explore.candidates", candidates, "count");
    report.metric("explore.sim_s", sim_s, "s");
    report.metric("explore.overhead_s", overhead_s, "s");
    report.metric(
        "bench.tracing_overhead_pct",
        pct_over(median(&traced_walls), median(untraced_walls)),
        "%",
    );
    report.lines.push(format!(
        "{} traced and {} untraced cold batches (medians below)",
        traced_walls.len(),
        untraced_walls.len()
    ));
    let covered = layer
        .iter()
        .find(|m| m.name == "bench.layer_coverage_pct")
        .map_or(0.0, |m| m.value);
    report.lines.push(format!(
        "{:.2}% of the traced batch's wall time is in no layer span",
        100.0 - covered
    ));
    layer
}

fn traced_campaign<T: Outcome>(
    w: Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
    gate: &mut Gate,
    counts: fn(&[T]) -> Vec<(&'static str, u64)>,
) -> Report {
    let cache_dir = fresh(work, "warm-cache");
    let mut report = Report::default();
    let plan = Plan::<T>::new(w, seed, &cache_dir);
    let specs = plan.specs;
    let jobs = specs.len();
    let reference = match cold_batch(plan.cold, &plan.cold_runner) {
        Ok((outcomes, ..)) => gate.batch("cold", outcomes, None, jobs),
        Err(panic) => {
            gate.fail(jobs as u64, format!("cold batch panicked: {panic}"));
            return report;
        }
    };
    let executed = plan.cold_runner.last_stats().executed as f64;

    let mut untraced_walls = Vec::new();
    let mut reps = Vec::new();
    let mut last_tracer = None;
    let mut pairs = Repetitions::new(MIN_PAIRS, budget);
    while pairs.next() {
        let plan = Plan::<T>::new(w, seed, &cache_dir);
        match cold_batch(plan.cold, &plan.cold_runner) {
            Ok((outcomes, wall, _)) => {
                untraced_walls.push(wall);
                gate.batch("cold", outcomes, Some(&reference), jobs);
            }
            Err(panic) => gate.fail(jobs as u64, format!("cold batch panicked: {panic}")),
        }
        let runner = Runner::new(WORKERS).with_cache_bypass(true);
        match traced_batch::<T>(&specs, &runner) {
            Ok((outcomes, tracer, rep)) => {
                gate.batch("traced", outcomes, Some(&reference), jobs);
                reps.push(rep);
                last_tracer = Some(tracer);
            }
            Err(panic) => gate.fail(jobs as u64, format!("traced batch panicked: {panic}")),
        }
    }
    let (Some(tracer), false) = (last_tracer, untraced_walls.is_empty()) else {
        return report;
    };

    probe_layers(&tracer, &specs, &reference, &cache_dir, gate, &mut report);
    let (outcomes, _, warm_executed) = warm_rerun(&specs, warm_runner(&cache_dir));
    gate.batch("warm", outcomes, Some(&reference), jobs);
    let hit_ratio = 1.0 - ratio(warm_executed as f64, jobs as f64);
    let layer = finish(
        &mut report,
        &reps,
        &untraced_walls,
        [jobs as f64, executed, hit_ratio],
        [0.0; 3],
    );
    check_counts(gate, &layer, &counts(&reference));
    report.chrome_trace = Some(tracer.chrome_trace());
    report
}

fn traced_explore(seed: u64, budget: Duration, work: &Path, gate: &mut Gate) -> Report {
    let mut report = Report::default();
    let cache_dir = fresh(work, "explore-cache");
    let (space, cfg) = explore_setup(seed, &cache_dir);
    let result = match on_fresh_thread(|| explore(&space, &cfg)) {
        Ok((Ok(result), ..)) => result,
        Ok((Err(e), ..)) => {
            gate.fail(1, format!("search failed: {e}"));
            return report;
        }
        Err(panic) => {
            gate.fail(1, format!("search panicked: {panic}"));
            return report;
        }
    };
    let (_, reference) = check_cold_search(gate, &result, &cache_dir, None);
    let specs = explore_specs(&result);
    let jobs = specs.len();

    let mut untraced_walls = Vec::new();
    let mut reps = Vec::new();
    let mut last_tracer = None;
    let mut pairs = Repetitions::new(MIN_PAIRS, budget);
    while pairs.next() {
        let (space, cfg) = explore_setup(seed, &fresh(work, "explore-cache"));
        match on_fresh_thread(|| explore(&space, &cfg)) {
            Ok((Ok(_), wall, _)) => untraced_walls.push(wall),
            Ok((Err(e), ..)) => gate.fail(1, format!("search failed: {e}")),
            Err(panic) => gate.fail(1, format!("search panicked: {panic}")),
        }
        // The engine's jobs, re-driven as one batch through a runner that
        // writes a fresh on-disk cache, as the engine's runners do.
        let runner = Runner::new(WORKERS)
            .with_cache_dir(fresh(work, "traced-cache"))
            .expect("fresh cache dir");
        match traced_batch::<CpuOutcome>(&specs, &runner) {
            Ok((outcomes, tracer, rep)) => {
                gate.batch("traced", outcomes, Some(&reference), jobs);
                reps.push(rep);
                last_tracer = Some(tracer);
            }
            Err(panic) => gate.fail(jobs as u64, format!("traced batch panicked: {panic}")),
        }
    }
    let (Some(tracer), false) = (last_tracer, untraced_walls.is_empty()) else {
        return report;
    };

    let probe_dir = fresh(work, "probe-cache");
    probe_layers(&tracer, &specs, &reference, &probe_dir, gate, &mut report);
    let (space, cfg) = explore_setup(seed, &probe_dir);
    let hit_ratio = match explore(&space, &cfg) {
        Ok(warm) => {
            gate.check(frontier_text(&warm) == frontier_text(&result), || {
                "warm frontier differs from the cold one".into()
            });
            ratio(warm.runner.cache_hits as f64, warm.runner.jobs as f64)
        }
        Err(e) => {
            gate.fail(1, format!("warm search failed: {e}"));
            0.0
        }
    };
    let sim_s = median(
        &reps
            .iter()
            .map(|r| secs(total(&r.totals, "job").time))
            .collect::<Vec<_>>(),
    );
    let explore_metrics = [
        result.evaluated.len() as f64,
        sim_s,
        median(&untraced_walls) - sim_s,
    ];
    let layer = finish(
        &mut report,
        &reps,
        &untraced_walls,
        [jobs as f64, result.runner.executed as f64, hit_ratio],
        explore_metrics,
    );
    check_counts(gate, &layer, &cpu_counts(&reference));
    report.chrome_trace = Some(tracer.chrome_trace());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("test-work")
            .join(name)
    }

    /// The gate holds on a seed other than the pinned one: every job of
    /// every workload passes its checks, cold, warm and against the
    /// reference batch.
    #[test]
    fn a_second_seed_passes_the_gate() {
        for w in Workload::ALL {
            let dir = work_dir(w.name());
            let mut gate = Gate::new(None);
            let report = untraced(w, 7, Duration::ZERO, &dir, &mut gate);
            assert!(gate.correct(), "{}: {:?}", w.name(), gate.notes);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, ["cpu_s", "warm_cpu_s", "setup_s", "peak_rss_mb"]);
            assert!(
                report.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                report.metrics
            );
        }
    }

    /// The traced re-drive reproduces the program's outcomes and counts.
    #[test]
    fn traced_gpu_campaign_matches_the_untraced_outcomes() {
        let dir = work_dir("traced-gpu");
        let mut gate = Gate::new(None);
        let report = traced(Workload::GpuCampaign, 7, Duration::ZERO, &dir, &mut gate);
        assert!(gate.correct(), "{:?}", gate.notes);
        let value = |name| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert_eq!(value("runner.jobs"), Some(200.0));
        assert!(value("gpu.wavefront_insts") > Some(0.0));
        assert_eq!(value("cpu.committed"), Some(0.0));
        assert_eq!(report.metrics.len(), 38);
    }
}
