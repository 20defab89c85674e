//! The traced run's instrumentation: each job re-driven through the
//! crates' public functions with a span around every call, so host time
//! splits by layer.
//!
//! The re-drives below repeat, step for step, what
//! `hetcore::run_cpu_multicore` (with `hetsim_cpu::multicore`), the
//! exploration engine's job, and `hetcore::run_gpu` (with
//! `hetsim_gpu::gpu::Gpu`) do, so their outcomes must equal the program's
//! own; the benchmark gates on that equality.
//!
//! Spans go to a [`TraceRecorder`] (exported as a Chrome trace); the
//! layer totals are summed from `Instant` readings at the same
//! boundaries, since many calls are shorter than the recorder's
//! microsecond clock.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hetcore::explore::Candidate;
use hetcore::{CpuDesign, CpuOutcome, GpuOutcome};
use hetsim_cpu::config::CoreConfig;
use hetsim_cpu::core::{Core, RunResult};
use hetsim_cpu::multicore::MulticoreResult;
use hetsim_cpu::stats::CoreStats;
use hetsim_device::dvfs::DvfsController;
use hetsim_gpu::cu::run_cu_profiled;
use hetsim_gpu::stats::GpuStats;
use hetsim_mem::hierarchy::{Hierarchy, HierarchyConfig};
use hetsim_mem::stats::MemStats;
use hetsim_obs::{MonotonicClock, TraceRecorder};
use hetsim_power::account::{CpuEnergyModel, EnergyBreakdown, GpuActivity, GpuEnergyModel};
use hetsim_power::assignment::VoltageFactors;
use hetsim_trace::cache::CachedTrace;
use hetsim_trace::isa::{Inst, OpClass};
use hetsim_trace::stream::THREAD_ADDRESS_STRIDE;
use hetsim_trace::WorkloadProfile;

use crate::workload::JobSpec;

/// Calls and time spent under one span name, plus a free-standing count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub calls: u64,
    /// Time inside them.
    pub time: Duration,
    /// Work counted under this name.
    pub count: u64,
}

/// Span and count totals, by name.
pub type Totals = BTreeMap<&'static str, Total>;

/// One core run of a CPU job, kept so the memory layer can be measured
/// on the same address stream afterwards.
#[derive(Debug, Clone)]
struct Phase {
    hierarchy: HierarchyConfig,
    app: WorkloadProfile,
    seed: u64,
    thread: u32,
    base: u64,
    /// Instructions the run executed (warm-up included).
    insts: u64,
    /// The trace memo request the run made.
    pull: u64,
}

/// Records spans and layer totals for one traced batch.
pub struct Tracer {
    recorder: TraceRecorder,
    totals: Mutex<Totals>,
    /// Shadow of the thread-local trace memo: instructions materialized
    /// per (app, seed, thread) stream. The memo extends a stream to
    /// exactly the requested length, so a request longer than the shadow
    /// generates and a shorter one replays.
    memo: Mutex<HashMap<(&'static str, u64, u32), u64>>,
    phases: Mutex<Vec<Phase>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            recorder: TraceRecorder::new(Arc::new(MonotonicClock::new())),
            totals: Mutex::default(),
            memo: Mutex::default(),
            phases: Mutex::default(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` (category: its layer, the part
    /// before the first `.`).
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let layer = name.split('.').next().unwrap_or(name);
        let span = self.recorder.span(name, layer);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        drop(span);
        let mut totals = self.totals.lock().expect("totals lock");
        let total = totals.entry(name).or_default();
        total.calls += 1;
        total.time += elapsed;
        out
    }

    /// Adds `n` to the count kept under `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        self.totals
            .lock()
            .expect("totals lock")
            .entry(name)
            .or_default()
            .count += n;
    }

    /// A snapshot of every total, with the trace memo's final size under
    /// `trace.memo_bytes`.
    pub fn totals(&self) -> Totals {
        let mut totals = self.totals.lock().expect("totals lock").clone();
        let insts: u64 = self.memo.lock().expect("memo lock").values().sum();
        totals.entry("trace.memo_bytes").or_default().count =
            insts * std::mem::size_of::<Inst>() as u64;
        totals
    }

    /// Every span recorded, as a Chrome trace-event document.
    pub fn chrome_trace(&self) -> String {
        serde_json::to_string(&hetsim_obs::chrome_trace(&self.recorder.events()))
            .expect("trace serialization is infallible")
    }

    /// `hetsim_trace::cache::replay`, as a memo-extending generation
    /// (`trace.gen`) or a pure replay (`trace.hit`).
    fn replay(&self, app: &WorkloadProfile, seed: u64, thread: u32, min_len: u64) -> CachedTrace {
        let had = {
            let mut memo = self.memo.lock().expect("memo lock");
            let have = memo.entry((app.name, seed, thread)).or_insert(0);
            std::mem::replace(have, (*have).max(min_len))
        };
        let call = || hetsim_trace::cache::replay(app, seed, thread, min_len);
        if min_len > had {
            self.count("trace.gen_insts", min_len - had);
            self.time("trace.gen", call)
        } else {
            self.time("trace.hit", call)
        }
    }

    /// Replays the data address stream of every core run recorded so far
    /// through a fresh, identically prewarmed `Hierarchy`, one span
    /// (`mem.access`) per run, counting into `mem.*`.
    pub fn replay_memory(&self) {
        let phases = self.phases.lock().expect("phases lock").clone();
        for p in phases {
            let ops: Vec<(u64, bool)> =
                hetsim_trace::cache::replay(&p.app, p.seed, p.thread, p.pull)
                    .take(p.insts as usize)
                    .filter_map(|inst| Some((inst.addr?, inst.op == OpClass::Store)))
                    .collect();
            let mut hierarchy = Hierarchy::new(p.hierarchy);
            hierarchy.prewarm(p.base, p.app.memory.working_set_bytes);
            self.time("mem.access", || {
                for &(addr, store) in &ops {
                    let access = if store {
                        hierarchy.store(addr)
                    } else {
                        hierarchy.load(addr)
                    };
                    std::hint::black_box(access);
                }
            });
            let s = hierarchy.stats();
            self.count("mem.accesses", ops.len() as u64);
            self.count("mem.dl1_accesses", s.dl1_accesses());
            self.count("mem.dl1_misses", s.dl1_slow.misses);
            self.count("mem.l2_accesses", s.l2.accesses);
            self.count("mem.l2_misses", s.l2.misses);
            self.count("mem.dram_accesses", s.dram_accesses);
        }
    }
}

/// A CPU job (campaign or exploration) re-driven under `t`.
pub fn cpu_job(t: &Tracer, spec: &JobSpec) -> CpuOutcome {
    let outcome = match spec {
        JobSpec::Cpu {
            design,
            cores,
            app,
            seed,
            insts,
        } => {
            let cfg = design.core_config();
            let model = t.time("power.model", || design.energy_model());
            multicore(t, *design, &cfg, &model, *cores, app, *seed, *insts)
        }
        JobSpec::Explore {
            candidate,
            app,
            seed,
            insts,
        } => explore_job(t, candidate, app, *seed, *insts),
        JobSpec::Gpu { .. } => panic!("a GPU job is not a CPU job: {}", spec.label()),
    };
    t.count("cpu.committed", outcome.committed);
    t.count("cpu.cycles", outcome.stats.cycles);
    outcome
}

/// The exploration engine's job: the candidate's operating point, the
/// design's configuration with the candidate's ROB and scaled clock, and
/// the energy model repriced at the operating point's rails.
fn explore_job(
    t: &Tracer,
    c: &Candidate,
    app: &WorkloadProfile,
    seed: u64,
    insts: u64,
) -> CpuOutcome {
    let hz = c.vdd_ghz * 1e9;
    let (nominal, point) = t.time("device.operating_point", || {
        let dvfs = DvfsController::new();
        let point = dvfs
            .operating_point(hz)
            .expect("explored operating points are reachable");
        (dvfs.nominal(), point)
    });
    let volts =
        VoltageFactors::from_voltages(point.v_cmos, nominal.v_cmos, point.v_tfet, nominal.v_tfet);
    let mut cfg = c.design.core_config();
    cfg.rob_entries = c.rob;
    // Scaled from the 2 GHz nominal, keeping the design's relative clock.
    cfg.clock_hz = hz * (cfg.clock_hz / 2.0e9);
    let model = t.time("power.model", || {
        c.design.energy_model().with_voltages(volts)
    });
    multicore(t, c.design, &cfg, &model, c.cores, app, seed, insts)
}

/// `hetcore::run_cpu_multicore_configured` under `t`.
#[allow(clippy::too_many_arguments)]
fn multicore(
    t: &Tracer,
    design: CpuDesign,
    cfg: &CoreConfig,
    model: &CpuEnergyModel,
    cores: u32,
    app: &WorkloadProfile,
    seed: u64,
    total_insts: u64,
) -> CpuOutcome {
    // The Amdahl split of `hetsim_cpu::multicore::run_multicore`.
    let serial_insts = (total_insts as f64 * (1.0 - app.parallel_fraction)).round() as u64;
    let per_core = (total_insts - serial_insts) / u64::from(cores);
    let serial = (serial_insts > 0).then(|| core_run(t, cfg, app, 0, 0, seed, serial_insts));
    let parallel: Vec<RunResult> = (0..cores)
        .filter(|_| per_core > 0)
        .map(|c| {
            let base = u64::from(c) * THREAD_ADDRESS_STRIDE;
            core_run(t, cfg, app, c, base, seed.wrapping_add(1), per_core)
        })
        .collect();
    let mc = MulticoreResult {
        cores,
        serial,
        parallel,
        clock_hz: cfg.clock_hz,
    };

    let price = |stats: &CoreStats, mem: &MemStats, seconds| {
        t.time("power.energy", || model.energy(stats, mem, seconds))
    };
    let mut energy = EnergyBreakdown::default();
    let t_serial = mc.serial_seconds();
    if let Some(serial) = &mc.serial {
        energy.merge(&price(&serial.stats, &serial.mem, t_serial));
        for _ in 1..cores {
            energy.merge(&t.time("power.energy", || model.idle_energy(t_serial)));
        }
    }
    let t_parallel = mc.parallel_seconds();
    for r in &mc.parallel {
        energy.merge(&price(&r.stats, &r.mem, t_parallel));
    }

    let mut stats = CoreStats::default();
    let mut mem = MemStats::default();
    let mut serial_cycles = 0;
    if let Some(serial) = &mc.serial {
        stats.merge(&serial.stats);
        mem.merge(&serial.mem);
        serial_cycles = serial.stats.cycles;
    }
    let mut parallel_cycles = 0;
    for r in &mc.parallel {
        stats.merge(&r.stats);
        mem.merge(&r.mem);
        parallel_cycles = parallel_cycles.max(r.stats.cycles);
    }
    stats.cycles = serial_cycles + parallel_cycles;

    CpuOutcome {
        design,
        app: app.name.to_string(),
        seconds: mc.total_seconds(),
        energy,
        cores,
        committed: mc.total_committed(),
        stats,
        mem,
    }
}

/// One core's run of `n` measured instructions after the standard
/// warm-up, as `run_multicore` does it.
fn core_run(
    t: &Tracer,
    cfg: &CoreConfig,
    app: &WorkloadProfile,
    core_id: u32,
    base: u64,
    seed: u64,
    n: u64,
) -> RunResult {
    let warmup = (n / 4).min(25_000);
    let pull = warmup + n + cfg.steering.lookahead_window() + 1;
    let mut core = t.time("cpu.prewarm", || {
        let mut core = Core::new(cfg.clone(), core_id);
        core.prewarm(base, app.memory.working_set_bytes);
        core
    });
    let trace = t.replay(app, seed, core_id, pull);
    let result = t.time("cpu.step", || core.run_warmed(trace, warmup, n));
    t.count("cpu.run_cycles", result.stats.cycles);
    t.phases.lock().expect("phases lock").push(Phase {
        hierarchy: cfg.memory.to_hierarchy(cfg.clock_hz),
        app: app.clone(),
        seed,
        thread: core_id,
        base,
        insts: warmup + n,
        pull,
    });
    result
}

/// A GPU job re-driven under `t`: `hetcore::run_gpu`, with the kernel
/// generation, the per-CU launch of `hetsim_gpu::gpu::Gpu`, and the
/// energy pricing as separate spans.
pub fn gpu_job(t: &Tracer, spec: &JobSpec) -> GpuOutcome {
    let JobSpec::Gpu {
        design,
        kernel,
        seed,
    } = spec
    else {
        panic!("not a GPU job: {}", spec.label());
    };
    let cfg = design.gpu_config();
    cfg.validate().expect("valid GPU config");
    let insts = t.time("gpu.kernel_gen", || kernel.generate(*seed));
    let (stats, cu_cycles) = t.time("gpu.step", || {
        // Round-robin wavefront distribution over the compute units.
        let cus = cfg.compute_units;
        let (base, extra) = (kernel.wavefronts / cus, kernel.wavefronts % cus);
        let mut stats = GpuStats::default();
        let mut cu_cycles = 0;
        for cu in 0..cus {
            let waves = base + u32::from(cu < extra);
            let cu_seed = seed.wrapping_add(0x9E37 * u64::from(cu) + 1);
            let (cu_stats, _) = run_cu_profiled(&cfg, &insts, kernel, waves, cu_seed);
            cu_cycles += cu_stats.cycles;
            stats.merge(&cu_stats);
        }
        (stats, cu_cycles)
    });
    let seconds = stats.cycles as f64 / cfg.clock_hz;
    let activity = GpuActivity {
        wavefront_insts: stats.wavefront_insts,
        thread_fma_ops: stats.thread_fma_ops,
        vector_rf_accesses: stats.vector_rf_accesses,
        rf_cache_accesses: stats.rf_cache_accesses,
        rf_fast_accesses: stats.rf_fast_accesses,
        lds_accesses: stats.lds_accesses,
        mem_insts: stats.mem_insts,
        dram_accesses: stats.dram_accesses,
        compute_units: cfg.compute_units,
        seconds,
    };
    let energy = t.time("power.energy", || {
        GpuEnergyModel::new(design.assignment()).energy(&activity)
    });
    t.count("gpu.cu_cycles", cu_cycles);
    t.count("gpu.wavefront_insts", stats.wavefront_insts);
    t.count("gpu.cycles", stats.cycles);
    GpuOutcome {
        design: *design,
        kernel: kernel.name.to_string(),
        seconds,
        energy,
        compute_units: cfg.compute_units,
        stats,
    }
}
