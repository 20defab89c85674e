//! The pinned scenario menu behind `repro bench`.
//!
//! `hetsim_bench` holds the generic measurement machinery (warmup +
//! repeat loop, `BENCH_*.json` schema, noise-aware compare); this
//! module holds the HetCore-specific part: *what* gets measured. The
//! menu is pinned — fixed scenarios on fixed seeds and fixed
//! instruction budgets — so two dumps from different builds measure
//! the same work and their insts/sec ratios mean something.
//!
//! The menu spans both end-to-end campaigns and per-subsystem
//! microbenches:
//!
//! * `fig7-cpu-campaign` — the full CPU design x application sweep
//!   (the figure 7/8/9/13 workload), on a cache-bypassing runner;
//! * `fig7-sharded` — the same sweep as `--shards 2` runs it: split
//!   into two shards by job key and merged back by submission index,
//!   pinning the partition-and-merge overhead;
//! * `fig10-gpu-campaign` — the full GPU design x kernel sweep
//!   (figures 10/11/12), same runner mode;
//! * `fig14-dvfs` — the DVFS / process-variation evaluation loop;
//! * `explore-frontier` — the `repro explore` adaptive search over the
//!   fig7 design space at the golden's pinned budget, pinning the
//!   wave-loop + Pareto machinery on top of the multicore simulations;
//! * `micro-cpu-step` — one single-core CPU simulation;
//! * `micro-gpu-step` — one GPU kernel simulation;
//! * `micro-mem-hierarchy` — raw cache-hierarchy accesses, no core;
//! * `micro-power-dvfs` — energy-model + DVFS operating-point
//!   evaluations, no simulation;
//! * `micro-event-queue` — a memory-bound run on the slowest core,
//!   stressing the timing wheel and the dead-cycle skip machinery.
//!
//! Campaign scenarios run on `Runner::with_cache_bypass(true)`: a perf
//! measurement must time simulation, never a warm-cache lookup, and
//! must be immune to whatever `--cache-dir` state a machine has.

use hetsim_bench::{measure, BenchDump, HostInfo, Measurement, ScenarioResult};
use hetsim_device::dvfs::DvfsController;
use hetsim_mem::hierarchy::Hierarchy;
use hetsim_obs::{Clock, MonotonicClock};
use hetsim_power::assignment::VoltageFactors;
use hetsim_runner::{workers_per_shard, Runner};
use hetsim_trace::apps;

use crate::config::{CpuDesign, GpuDesign};
use crate::experiment::{run_cpu, run_gpu};
use crate::suite::Suite;

/// Default per-scenario instruction budget of a full `repro bench`.
pub const FULL_INSTS: u64 = 300_000;
/// Budget of the `--quick` profile (CI smoke runs).
pub const QUICK_INSTS: u64 = 60_000;
/// Default discarded warmup iterations per scenario.
pub const DEFAULT_WARMUP: u32 = 1;
/// Default timed repeats per scenario.
pub const DEFAULT_REPEATS: u32 = 3;

/// The pinned scenario names, menu order. Compare joins dumps on these
/// names, so renaming one orphans its perf trajectory — add, don't
/// rename.
pub const SCENARIOS: [&str; 10] = [
    "fig7-cpu-campaign",
    "fig7-sharded",
    "fig10-gpu-campaign",
    "fig14-dvfs",
    "explore-frontier",
    "micro-cpu-step",
    "micro-gpu-step",
    "micro-mem-hierarchy",
    "micro-power-dvfs",
    "micro-event-queue",
];

/// One `repro bench` run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Per-application instruction budget of the CPU-driven scenarios
    /// (the GPU campaign's work is fixed by its kernel profiles).
    pub insts: u64,
    /// Trace-generator seed every scenario runs on.
    pub seed: u64,
    /// Discarded warmup iterations per scenario.
    pub warmup: u32,
    /// Timed repeats per scenario.
    pub repeats: u32,
    /// Worker threads for the campaign scenarios.
    pub jobs: usize,
    /// Whether this is the `--quick` profile (recorded in the dump:
    /// quick and full dumps are not comparable).
    pub quick: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            insts: FULL_INSTS,
            seed: 42,
            warmup: DEFAULT_WARMUP,
            repeats: DEFAULT_REPEATS,
            jobs: 1,
            quick: false,
        }
    }
}

impl BenchConfig {
    /// The `--quick` profile: reduced budget, same menu.
    pub fn quick() -> Self {
        BenchConfig {
            insts: QUICK_INSTS,
            quick: true,
            ..BenchConfig::default()
        }
    }

    fn suite(&self) -> Suite {
        Suite {
            insts_per_app: self.insts,
            seed: self.seed,
        }
    }
}

/// A fresh campaign runner in benchmark mode: no cache directory and
/// cache bypass on, so every repeat simulates from cold on the
/// identical timing path.
fn bench_runner<T>(jobs: usize) -> Runner<T>
where
    T: Clone + Send + serde::Serialize + serde::Deserialize + hetsim_runner::SimMetrics,
{
    Runner::new(jobs.max(1)).with_cache_bypass(true)
}

/// The full CPU campaign as `--shards shards` runs it: one bypass
/// runner per shard, splitting the worker budget by `workers_per_shard`,
/// the job list split between them by key. `fig7-sharded` (two shards)
/// simulates the same work as `fig7-cpu-campaign` (one), so the
/// insts/sec gap between the two is the partition-and-merge overhead.
/// Returns total committed instructions.
fn run_fig7(cfg: &BenchConfig, shards: usize) -> u64 {
    let workers = workers_per_shard(cfg.jobs, shards);
    let runners: Vec<_> = (0..shards).map(|_| bench_runner(workers)).collect();
    let campaign = cfg.suite().cpu_campaign_sharded(&runners);
    campaign
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.committed)
        .sum()
}

/// The full GPU campaign; returns total wavefront instructions.
fn run_fig10(cfg: &BenchConfig) -> u64 {
    let campaign = cfg.suite().gpu_campaign_with(&bench_runner(cfg.jobs));
    campaign
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.stats.wavefront_insts)
        .sum()
}

/// The Figure 14 DVFS / process-variation evaluation; returns its
/// nominal instruction count (4 operating points x 2 designs x 6 apps
/// at a quarter of the per-app budget — see `Suite::fig14`).
fn run_fig14(cfg: &BenchConfig) -> u64 {
    let report = cfg.suite().fig14();
    let points = report.rows.len() as u64;
    points * 2 * 6 * (cfg.insts / 4)
}

/// The `repro explore` adaptive search at the golden's pinned budget,
/// on cache-bypassing runners (an exploration benchmark must time the
/// search + simulation, never warm-cache lookups). The instruction
/// budget is a quarter of the per-app budget: the search evaluates 12
/// candidates x 4 apps = 48 multicore jobs, so the quarter keeps this
/// scenario within the same wall-clock band as the campaign scenarios.
/// Returns total committed instructions across all evaluations.
fn run_explore_frontier(cfg: &BenchConfig) -> u64 {
    let space = crate::explore::DesignSpace::fig7();
    let ecfg = crate::explore::ExploreConfig {
        budget: 12,
        seed: cfg.seed,
        insts: (cfg.insts / 4).max(1),
        jobs: cfg.jobs.max(1),
        cache_bypass: true,
        ..crate::explore::ExploreConfig::default()
    };
    let result = crate::explore::explore(&space, &ecfg).expect("pinned space is valid");
    result.total_committed()
}

/// One single-core AdvHet simulation; returns committed instructions.
fn run_micro_cpu(cfg: &BenchConfig) -> u64 {
    let app = apps::profile("fft").expect("pinned app exists");
    run_cpu(CpuDesign::AdvHet, &app, cfg.seed, cfg.insts).committed
}

/// One GPU kernel simulation; returns wavefront instructions.
fn run_micro_gpu(cfg: &BenchConfig) -> u64 {
    let kernel = hetsim_gpu::kernels::profile("matmul").expect("pinned kernel exists");
    run_gpu(GpuDesign::AdvHet, &kernel, cfg.seed)
        .stats
        .wavefront_insts
}

/// Raw hierarchy traffic: `insts` accesses cycling fetch/load/store
/// over a working set larger than the L1s, no core model in the way.
/// The latency sum is routed through `black_box` so the loop cannot be
/// optimized away. Returns the access count.
fn run_micro_mem(cfg: &BenchConfig) -> u64 {
    let core_cfg = CpuDesign::BaseCmos.core_config();
    let mut h = Hierarchy::new(core_cfg.memory.to_hierarchy(core_cfg.clock_hz));
    h.prewarm(0, 1 << 20);
    let mut latency: u64 = 0;
    // A seed-dependent odd stride walks 1 MiB: hits and misses at
    // every level, deterministic per seed.
    let stride = 64 + (cfg.seed | 1);
    for i in 0..cfg.insts {
        let addr = i.wrapping_mul(stride) & 0xF_FFFF;
        latency += match i % 3 {
            0 => h.fetch(addr) as u64,
            1 => h.load(addr).latency as u64,
            _ => h.store(addr).latency as u64,
        };
    }
    std::hint::black_box(latency);
    cfg.insts
}

/// Pure accounting throughput: energy-model evaluations over a real
/// run's counters at alternating DVFS operating points. Returns the
/// evaluation count.
fn run_micro_power(cfg: &BenchConfig) -> u64 {
    let app = apps::profile("lu").expect("pinned app exists");
    let sample = run_cpu(CpuDesign::AdvHet, &app, cfg.seed, cfg.insts.min(20_000));
    let dvfs = DvfsController::new();
    let nominal = dvfs.nominal();
    let points = [1.5e9, 2.0e9, 2.5e9];
    let evals = (cfg.insts / 64).max(1);
    let mut total_j = 0.0;
    for i in 0..evals {
        let hz = points[(i % points.len() as u64) as usize];
        let volts = match dvfs.operating_point(hz) {
            Some(p) => {
                VoltageFactors::from_voltages(p.v_cmos, nominal.v_cmos, p.v_tfet, nominal.v_tfet)
            }
            None => VoltageFactors::default(),
        };
        let model = CpuDesign::AdvHet.energy_model().with_voltages(volts);
        total_j += model
            .energy(&sample.stats, &sample.mem, sample.seconds)
            .total_j();
    }
    std::hint::black_box(total_j);
    evals
}

/// Event-queue stress: the paper's most memory-bound application on the
/// all-TFET core (the slowest clock and deepest relative miss
/// latencies), so the pipeline spends most cycles stalled and
/// throughput is dominated by the timing wheel and the dead-cycle skip
/// machinery rather than by dispatch/commit work. Returns committed
/// instructions.
fn run_micro_event_queue(cfg: &BenchConfig) -> u64 {
    let app = apps::profile("canneal").expect("pinned app exists");
    run_cpu(CpuDesign::BaseTfet, &app, cfg.seed, cfg.insts).committed
}

/// Runs one scenario's body once; returns the instructions it
/// simulated. Panics on an unknown name (the menu is [`SCENARIOS`]).
fn run_scenario(name: &str, cfg: &BenchConfig) -> u64 {
    match name {
        "fig7-cpu-campaign" => run_fig7(cfg, 1),
        "fig7-sharded" => run_fig7(cfg, 2),
        "fig10-gpu-campaign" => run_fig10(cfg),
        "fig14-dvfs" => run_fig14(cfg),
        "explore-frontier" => run_explore_frontier(cfg),
        "micro-cpu-step" => run_micro_cpu(cfg),
        "micro-gpu-step" => run_micro_gpu(cfg),
        "micro-mem-hierarchy" => run_micro_mem(cfg),
        "micro-power-dvfs" => run_micro_power(cfg),
        "micro-event-queue" => run_micro_event_queue(cfg),
        other => panic!("unknown bench scenario `{other}`"),
    }
}

/// Measures every pinned scenario under `cfg` against `clock` and
/// assembles the dump. Scenario order is [`SCENARIOS`] order; progress
/// is narrated on stderr (one line per scenario), keeping stdout free
/// for the dump/report the CLI prints.
pub fn run_bench_with_clock(clock: &dyn Clock, cfg: &BenchConfig) -> BenchDump {
    let mut scenarios = Vec::with_capacity(SCENARIOS.len());
    for name in SCENARIOS {
        eprintln!(
            "[bench] {name} ({} warmup + {} repeat(s))...",
            cfg.warmup,
            cfg.repeats.max(1)
        );
        let m: Measurement = measure(clock, cfg.warmup, cfg.repeats, || run_scenario(name, cfg));
        let r = ScenarioResult::new(name, &m);
        eprintln!(
            "[bench] {name}: {} insts, median {} us, {:.0} insts/s{}",
            r.insts,
            r.wall_us,
            r.insts_per_sec,
            if r.timing.noisy { " (noisy)" } else { "" }
        );
        scenarios.push(r);
    }
    BenchDump {
        schema: hetsim_bench::BENCH_SCHEMA.to_string(),
        quick: cfg.quick,
        insts: cfg.insts,
        seed: cfg.seed,
        warmup: cfg.warmup,
        repeats: cfg.repeats.max(1),
        host: HostInfo::detect(),
        scenarios,
    }
}

/// [`run_bench_with_clock`] on the real monotonic clock — the entry
/// point `repro bench` uses.
pub fn run_bench(cfg: &BenchConfig) -> BenchDump {
    run_bench_with_clock(&MonotonicClock::new(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest config that still drives every scenario through
    /// real work: unit tests must stay fast.
    fn tiny() -> BenchConfig {
        BenchConfig {
            insts: 1_000,
            seed: 7,
            warmup: 0,
            repeats: 1,
            jobs: 1,
            quick: true,
        }
    }

    #[test]
    fn menu_names_are_unique_and_nonempty() {
        let mut seen: Vec<&str> = Vec::new();
        for name in SCENARIOS {
            assert!(!name.is_empty());
            assert!(!seen.contains(&name), "duplicate scenario `{name}`");
            seen.push(name);
        }
    }

    #[test]
    fn every_scenario_simulates_work_and_the_dump_validates() {
        let dump = run_bench(&tiny());
        dump.validate().expect("dump is structurally valid");
        assert_eq!(
            dump.scenarios
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            SCENARIOS.to_vec(),
            "dump preserves menu order"
        );
        for s in &dump.scenarios {
            assert!(s.insts > 0, "{}: zero instructions simulated", s.name);
        }
        assert!(dump.quick);
        assert_eq!((dump.insts, dump.seed), (1_000, 7));
    }

    #[test]
    fn scenario_insts_are_deterministic_across_runs() {
        let cfg = tiny();
        let a = run_bench(&cfg);
        let b = run_bench(&cfg);
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.insts, y.insts, "{}: insts must be pinned", x.name);
        }
    }

    #[test]
    fn sharded_scenario_simulates_exactly_the_campaign_work() {
        // The sharded variant measures coordination overhead, not
        // different work: its committed-instruction total must equal
        // the plain campaign's, or the two trajectories stop being
        // comparable.
        let cfg = tiny();
        assert_eq!(
            run_scenario("fig7-sharded", &cfg),
            run_scenario("fig7-cpu-campaign", &cfg)
        );
    }

    #[test]
    fn quick_profile_uses_the_reduced_budget() {
        let cfg = BenchConfig::quick();
        assert!(cfg.quick);
        assert_eq!(cfg.insts, QUICK_INSTS);
        const { assert!(QUICK_INSTS < FULL_INSTS) };
    }
}
