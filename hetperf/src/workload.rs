//! The four campaign workloads: what each batch contains, and the job and
//! outcome types the measurement loop drives.
//!
//! Batch sizes are fixed here, never taken from the command line, so every
//! run of a workload does the same work and only `--seed` varies it.

use hetcore::check::{validate_cpu_outcome, validate_gpu_outcome};
use hetcore::explore::{explore_job_key, Candidate, ExploreResult};
use hetcore::suite::{BASELINE_CORES, TWOX_CORES};
use hetcore::{cpu_job, cpu_job_key, gpu_job, gpu_job_key, CpuDesign, GpuDesign};
use hetcore::{CpuOutcome, GpuOutcome};
use hetsim_check::Checker;
use hetsim_gpu::KernelProfile;
use hetsim_runner::{Job, JobKey, SimMetrics};
use hetsim_trace::{apps, WorkloadProfile};
use serde::{Deserialize, Serialize};

use crate::traced::{self, Tracer};

/// The seed whose outcome digests are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// Worker threads of every runner. One worker keeps host time a measure
/// of the code rather than of the host's core count, and keeps each
/// batch on the thread whose trace memo the batch starts empty.
pub const WORKERS: usize = 1;

/// Instructions per application of `cpu-campaign`.
const CPU_CAMPAIGN_INSTS: u64 = 30_000;
/// Consecutive seeds `gpu-campaign` sweeps, starting at the workload seed.
const GPU_CAMPAIGN_SEEDS: u64 = 2;
/// Candidates `explore-sweep` may evaluate (at the engine's default
/// per-app instruction budget, over its four apps).
pub const EXPLORE_BUDGET: usize = 60;
/// Seeds `seed-sweep` covers.
const SEED_SWEEP_SEEDS: u64 = 4;
/// Instructions per application of `seed-sweep`.
const SEED_SWEEP_INSTS: u64 = 30_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 7 CPU sweep: 14 apps x (ten 4-core designs + AdvHet-2X).
    CpuCampaign,
    /// The Figure 10-12 GPU sweep: 20 kernels x 5 designs per seed.
    GpuCampaign,
    /// `hetcore::explore` over the 180-cell fig7 design space.
    ExploreSweep,
    /// AdvHet (4 cores) on all 14 apps over several seeds, every
    /// instruction stream simulated exactly once.
    SeedSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CpuCampaign,
        Workload::GpuCampaign,
        Workload::ExploreSweep,
        Workload::SeedSweep,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuCampaign => "cpu-campaign",
            Workload::GpuCampaign => "gpu-campaign",
            Workload::ExploreSweep => "explore-sweep",
            Workload::SeedSweep => "seed-sweep",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job batch of a campaign-style workload (`explore-sweep`'s jobs
    /// are chosen by the search; see [`explore_specs`]).
    pub fn specs(self, seed: u64) -> Vec<JobSpec> {
        let cpu = |design, cores, app: &WorkloadProfile, seed, insts| JobSpec::Cpu {
            design,
            cores,
            app: app.clone(),
            seed,
            insts,
        };
        match self {
            // Row-major (app, then design), the order of
            // `Suite::cpu_campaign_jobs`, so outcomes fold into a
            // `CpuCampaign` for the paper comparison.
            Workload::CpuCampaign => apps::all()
                .iter()
                .flat_map(|app| {
                    CpuDesign::ALL
                        .iter()
                        .map(|&d| cpu(d, BASELINE_CORES, app, seed, CPU_CAMPAIGN_INSTS))
                        .chain(std::iter::once(cpu(
                            CpuDesign::AdvHet,
                            TWOX_CORES,
                            app,
                            seed,
                            CPU_CAMPAIGN_INSTS,
                        )))
                        .collect::<Vec<_>>()
                })
                .collect(),
            Workload::GpuCampaign => (0..GPU_CAMPAIGN_SEEDS)
                .map(|k| seed.wrapping_add(k))
                .flat_map(|s| {
                    hetsim_gpu::kernels::all()
                        .into_iter()
                        .flat_map(move |kernel| {
                            GpuDesign::ALL.iter().map(move |&design| JobSpec::Gpu {
                                design,
                                kernel: kernel.clone(),
                                seed: s,
                            })
                        })
                })
                .collect(),
            // A multicore run reads stream `seed` (serial phase) and
            // `seed + 1` (parallel phase), so seeds step by two: no two
            // jobs share a stream, and the trace memo never replays.
            Workload::SeedSweep => (0..SEED_SWEEP_SEEDS)
                .flat_map(|k| {
                    let s = seed.wrapping_add(2 * k);
                    apps::all()
                        .iter()
                        .map(|app| cpu(CpuDesign::AdvHet, BASELINE_CORES, app, s, SEED_SWEEP_INSTS))
                        .collect::<Vec<_>>()
                })
                .collect(),
            Workload::ExploreSweep => panic!("explore-sweep jobs come from its search"),
        }
    }
}

/// The (candidate, app) jobs an exploration evaluated, in evaluation order.
pub fn explore_specs(result: &ExploreResult) -> Vec<JobSpec> {
    result
        .evaluated
        .iter()
        .flat_map(|point| {
            result.space.apps.iter().map(move |name| JobSpec::Explore {
                candidate: point.candidate,
                app: apps::profile(name).expect("explored apps are known"),
                seed: result.seed,
                insts: result.insts,
            })
        })
        .collect()
}

/// One simulation job, described by value so the traced run can re-drive
/// it layer by layer.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A campaign CPU job (`hetcore::cpu_job`).
    Cpu {
        /// Table IV design.
        design: CpuDesign,
        /// Chip core count.
        cores: u32,
        /// Application.
        app: WorkloadProfile,
        /// Workload seed.
        seed: u64,
        /// Instructions per application.
        insts: u64,
    },
    /// A campaign GPU job (`hetcore::gpu_job`).
    Gpu {
        /// Design.
        design: GpuDesign,
        /// Kernel.
        kernel: KernelProfile,
        /// Workload seed.
        seed: u64,
    },
    /// One (candidate, app) job of a design-space exploration.
    Explore {
        /// Grid cell.
        candidate: Candidate,
        /// Application.
        app: WorkloadProfile,
        /// Workload seed.
        seed: u64,
        /// Instructions per application.
        insts: u64,
    },
}

impl JobSpec {
    /// The job's content-addressed cache key, as the program computes it.
    pub fn key(&self) -> JobKey {
        match self {
            JobSpec::Cpu {
                design,
                cores,
                app,
                seed,
                insts,
            } => cpu_job_key(*design, *cores, app, *seed, *insts),
            JobSpec::Gpu {
                design,
                kernel,
                seed,
            } => gpu_job_key(*design, kernel, *seed),
            JobSpec::Explore {
                candidate,
                app,
                seed,
                insts,
            } => explore_job_key(candidate, app.name, *seed, *insts),
        }
    }

    /// A progress label in the program's `kind/app/design` shape.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Cpu {
                design, cores, app, ..
            } => format!("cpu/{}/{}x{}", app.name, design.name(), cores),
            JobSpec::Gpu { design, kernel, .. } => {
                format!("gpu/{}/{}", kernel.name, design.name())
            }
            JobSpec::Explore { candidate, app, .. } => {
                format!("explore/{}/{}", app.name, candidate.label())
            }
        }
    }
}

/// An experiment outcome the benchmark runs, checks and re-drives.
pub trait Outcome:
    Clone + PartialEq + Send + Serialize + Deserialize + SimMetrics + 'static
{
    /// The job the program itself builds for `spec`.
    fn job(spec: &JobSpec) -> Job<Self>;

    /// `spec` re-driven layer by layer, with spans, under `tracer`.
    fn traced(tracer: &Tracer, spec: &JobSpec) -> Self;

    /// Runs the program's own outcome invariants.
    fn validate(&self, checker: &mut Checker);

    /// Bumps the named counter (`core.*`, `mem.*` or `gpu.*`) by one,
    /// returning whether this outcome has such a counter.
    fn perturb(&mut self, counter: &str) -> bool;
}

fn bump(get: Option<u64>, set: impl FnOnce(u64) -> bool) -> bool {
    get.is_some_and(|v| set(v + 1))
}

impl Outcome for CpuOutcome {
    fn job(spec: &JobSpec) -> Job<Self> {
        match spec {
            JobSpec::Cpu {
                design,
                cores,
                app,
                seed,
                insts,
            } => cpu_job(*design, *cores, app, *seed, *insts),
            other => panic!("no campaign CPU job for {}", other.label()),
        }
    }

    fn traced(tracer: &Tracer, spec: &JobSpec) -> Self {
        traced::cpu_job(tracer, spec)
    }

    fn validate(&self, checker: &mut Checker) {
        validate_cpu_outcome(self, checker);
    }

    fn perturb(&mut self, counter: &str) -> bool {
        if let Some(name) = counter.strip_prefix("core.") {
            return bump(self.stats.get(name), |v| self.stats.set(name, v));
        }
        if let Some(name) = counter.strip_prefix("mem.") {
            return bump(self.mem.get(name), |v| self.mem.set(name, v));
        }
        false
    }
}

impl Outcome for GpuOutcome {
    fn job(spec: &JobSpec) -> Job<Self> {
        match spec {
            JobSpec::Gpu {
                design,
                kernel,
                seed,
            } => gpu_job(*design, kernel, *seed),
            other => panic!("no GPU job for {}", other.label()),
        }
    }

    fn traced(tracer: &Tracer, spec: &JobSpec) -> Self {
        traced::gpu_job(tracer, spec)
    }

    fn validate(&self, checker: &mut Checker) {
        validate_gpu_outcome(self, checker);
    }

    fn perturb(&mut self, counter: &str) -> bool {
        counter
            .strip_prefix("gpu.")
            .is_some_and(|name| bump(self.stats.get(name), |v| self.stats.set(name, v)))
    }
}
