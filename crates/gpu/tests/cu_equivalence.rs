//! Differential test of the planned CU step.
//!
//! `hetsim_gpu::cu` simulates the register-file cache once per launch
//! (an issue plan) and scales its per-wavefront counters by the wave
//! count. The reference below is the per-wavefront loop it replaced,
//! kept verbatim: one `RfCache` per resident wavefront, every counter
//! bumped at issue. For drawn configurations and kernels, the two must
//! agree on every `GpuStats` counter and on the whole `CuProfile`
//! (classes, cycles and residency), with attribution profiling on and
//! off, both per CU and for a whole `Gpu` launch sharing one plan.

use std::sync::Mutex;

use proptest::prelude::*;

use hetsim_gpu::config::{GpuConfig, RfCacheConfig, WAVEFRONT_THREADS};
use hetsim_gpu::cu::run_cu_profiled;
use hetsim_gpu::gpu::Gpu;
use hetsim_gpu::kernel::{GpuInst, GpuOp, KernelProfile};
use hetsim_gpu::kernels;
use hetsim_gpu::partitioned::{FastRegSet, PartitionedRfConfig};
use hetsim_gpu::profile::{CuProfile, CycleClass};
use hetsim_gpu::rfcache::RfCache;
use hetsim_gpu::schedule::schedule_kernel;
use hetsim_gpu::stats::GpuStats;
use hetsim_stats::attribution;

// ---------------------------------------------------------------------
// Reference: the per-wavefront CU loop, verbatim.
// ---------------------------------------------------------------------
/// SplitMix64 hash, used to sample per-(wavefront, pc) events
/// deterministically — the miss pattern must not depend on the issue
/// interleaving, or configuration comparisons would be noisy.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic Bernoulli draw from a hashed key.
fn hashed_bool(key: u64, p: f64) -> bool {
    (hash64(key) as f64 / u64::MAX as f64) < p
}

/// Per-wavefront execution state, struct-of-arrays: the issue scan is a
/// dense walk over small parallel vectors (`pc`, `next_issue`,
/// `prev_done`) instead of hopping across per-wave structs, and the
/// rarely-touched fields (`id`, RF caches) stay out of the scanned
/// lines.
struct WavePool {
    /// Global wavefront ids (stable across configurations).
    id: Vec<u64>,
    pc: Vec<u32>,
    /// Completion time of each wavefront's previous instruction
    /// (scoreboard).
    prev_done: Vec<u64>,
    /// Earliest cycle each wavefront may issue again (SIMD occupancy).
    next_issue: Vec<u64>,
    /// Per-wave RF caches; empty when the config has none.
    rfc: Vec<RfCache>,
}

fn reference_run_cu_profiled(
    cfg: &GpuConfig,
    kernel: &[GpuInst],
    profile: &KernelProfile,
    wave_count: u32,
    seed: u64,
) -> (GpuStats, CuProfile) {
    cfg.validate().expect("valid GPU config");
    let mut stats = GpuStats::default();
    let mut attrib = CuProfile::default();
    if wave_count == 0 || kernel.is_empty() {
        return (stats, attrib);
    }
    let profiling = attribution::enabled();
    let threads = u64::from(WAVEFRONT_THREADS);
    let issue_occupancy = u64::from(cfg.issue_cycles_per_wavefront());
    // Static fast-register allocation for a partitioned RF (per kernel,
    // shared by every wavefront — it is a compiler decision).
    let fast_regs = cfg.rf_partition.map(|p| FastRegSet::allocate(kernel, p));

    // Waves beyond the resident limit start as soon as a slot frees; model
    // by batching (each batch fully resident, conservative on tail
    // effects, which are small for the launch sizes used).
    let resident = cfg.waves_per_cu.min(wave_count);
    let batches = wave_count.div_ceil(resident);
    let kernel_len = u32::try_from(kernel.len()).expect("kernel fits in u32 pcs");
    let mut cycle: u64 = 0;
    let mut skipped_cycles: u64 = 0;
    let mut wakeup_jumps: u64 = 0;

    for batch in 0..batches {
        let n = resident.min(wave_count - batch * resident) as usize;
        let mut pool = WavePool {
            id: (0..n as u32)
                .map(|w| seed ^ hash64(u64::from(batch * resident + w)))
                .collect(),
            pc: vec![0; n],
            prev_done: vec![0; n],
            next_issue: vec![cycle; n],
            rfc: match cfg.rf_cache {
                Some(c) => (0..n).map(|_| RfCache::new(c.entries as usize)).collect(),
                None => Vec::new(),
            },
        };
        let mut rr = 0usize;
        let mut remaining = n;
        while remaining > 0 {
            // Round-robin scan for the first issuable wavefront. The
            // next-event search is folded into the scan: if every
            // wavefront refuses, `next_ready` already holds the
            // earliest cycle one could issue, so the idle jump below
            // needs no second pass over the pool.
            let mut issued = false;
            let mut next_ready = u64::MAX;
            let mut next_blocked_on_mem = false;
            for k in 0..n {
                let mut i = rr + k;
                if i >= n {
                    i -= n;
                }
                let pc = pool.pc[i];
                if pc >= kernel_len {
                    continue;
                }
                let inst = kernel[pc as usize];
                let dep = if inst.dep_on_prev {
                    pool.prev_done[i]
                } else {
                    0
                };
                let ready = pool.next_issue[i].max(dep);
                if ready > cycle {
                    if ready < next_ready {
                        next_ready = ready;
                        // Attribution for the idle gap below: the binding
                        // constraint of the wave that wakes *first*. A
                        // scoreboard dependence on a memory instruction
                        // means the whole CU is waiting on memory;
                        // anything else is issue bandwidth or an ALU
                        // dependence chain. `dep > next_issue` implies
                        // the wave issued before, so `pc - 1` is valid.
                        next_blocked_on_mem =
                            dep > pool.next_issue[i] && kernel[(pc - 1) as usize].op == GpuOp::Mem;
                    }
                    continue;
                }
                // ---- Issue this wavefront instruction ----
                let read_latency = read_sources(
                    cfg,
                    pool.rfc.get_mut(i),
                    &inst,
                    &mut stats,
                    threads,
                    fast_regs.as_ref(),
                );
                if let (Some(dst), Some(rfc)) = (inst.dst, pool.rfc.get_mut(i)) {
                    let evict_before = rfc.evictions();
                    rfc.write(dst);
                    stats.rf_cache_accesses += threads;
                    stats.vector_rf_accesses += (rfc.evictions() - evict_before) * threads;
                } else if let (Some(dst), Some(fast)) = (inst.dst, fast_regs.as_ref()) {
                    if fast.is_fast(dst) {
                        stats.rf_fast_accesses += threads;
                    } else {
                        stats.vector_rf_accesses += threads;
                    }
                } else if inst.dst.is_some() {
                    stats.vector_rf_accesses += threads;
                }
                let fu_latency = match inst.op {
                    GpuOp::Valu => {
                        stats.valu_insts += 1;
                        stats.thread_fma_ops += threads;
                        u64::from(cfg.fma_latency)
                    }
                    GpuOp::Mem => {
                        stats.mem_insts += 1;
                        let key = pool.id[i]
                            .wrapping_mul(0x1000_0001)
                            .wrapping_add(u64::from(pc));
                        if hashed_bool(key, profile.mem_miss_rate) {
                            stats.dram_accesses += 1;
                            u64::from(cfg.mem_miss_latency)
                        } else {
                            u64::from(cfg.mem_hit_latency)
                        }
                    }
                    GpuOp::Lds => {
                        stats.lds_insts += 1;
                        stats.lds_accesses += threads;
                        u64::from(cfg.lds_latency)
                    }
                };
                pool.prev_done[i] = cycle + read_latency + fu_latency;
                pool.next_issue[i] = cycle + issue_occupancy;
                pool.pc[i] = pc + 1;
                stats.wavefront_insts += 1;
                if pc + 1 >= kernel_len {
                    remaining -= 1;
                }
                rr = i + 1;
                if rr == n {
                    rr = 0;
                }
                issued = true;
                break;
            }
            if !issued {
                // Skip ahead to the next event rather than ticking idle
                // cycles one by one.
                assert!(
                    next_ready != u64::MAX,
                    "remaining > 0 implies an unfinished wave"
                );
                let next = next_ready.max(cycle + 1);
                skipped_cycles += next - (cycle + 1);
                wakeup_jumps += 1;
                let gap = next - cycle;
                let class = if next_blocked_on_mem {
                    CycleClass::MemLatency
                } else {
                    CycleClass::IssueBound
                };
                attrib.classes.charge(class, gap);
                if profiling {
                    attrib.residency.record_n(remaining as u64, gap);
                }
                cycle = next;
                continue;
            }
            attrib.classes.charge(CycleClass::Retire, 1);
            if profiling {
                attrib.residency.record_n(remaining as u64, 1);
            }
            cycle += 1;
        }
        // Drain the batch: the batch ends when its slowest wavefront's
        // last instruction completes.
        let drain = pool.prev_done.iter().copied().max().unwrap_or(cycle);
        if drain > cycle {
            attrib
                .classes
                .charge(CycleClass::IdleSkipped, drain - cycle);
            if profiling {
                attrib.residency.record_n(0, drain - cycle);
            }
            cycle = drain;
        }
    }
    hetsim_gpu::telemetry::record(skipped_cycles, wakeup_jumps);
    stats.cycles = cycle;
    attrib.cycles = cycle;
    debug_assert_eq!(
        attrib.classes.total(),
        attrib.cycles,
        "every CU cycle is charged to exactly one class"
    );
    (stats, attrib)
}

/// Reads an instruction's sources through the RF cache (if present),
/// returning the register-read latency and counting energy events.
fn read_sources(
    cfg: &GpuConfig,
    mut rfc: Option<&mut RfCache>,
    inst: &GpuInst,
    stats: &mut GpuStats,
    threads: u64,
    fast_regs: Option<&FastRegSet>,
) -> u64 {
    let mut latency = 0u64;
    for src in inst.srcs.into_iter().flatten() {
        let lat = match (rfc.as_deref_mut(), cfg.rf_cache) {
            (Some(rfc), Some(rfc_cfg)) => {
                if rfc.read(src) {
                    stats.rf_cache_hits += threads;
                    stats.rf_cache_accesses += threads;
                    u64::from(rfc_cfg.latency)
                } else {
                    stats.rf_cache_misses += threads;
                    stats.vector_rf_accesses += threads;
                    u64::from(cfg.rf_latency)
                }
            }
            _ => match (fast_regs, cfg.rf_partition) {
                (Some(fast), Some(part)) if fast.is_fast(src) => {
                    stats.rf_fast_accesses += threads;
                    u64::from(part.fast_latency)
                }
                _ => {
                    stats.vector_rf_accesses += threads;
                    u64::from(cfg.rf_latency)
                }
            },
        };
        latency = latency.max(lat);
    }
    latency
}

// ---------------------------------------------------------------------
// Drawn configurations and launches.
// ---------------------------------------------------------------------

/// The attribution switch is process-wide: hold this while flipping it
/// so a concurrently running test cannot change it mid-comparison.
static PROFILING: Mutex<()> = Mutex::new(());

fn with_profiling<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let _guard = PROFILING.lock().unwrap_or_else(|e| e.into_inner());
    attribution::set_enabled(on);
    let out = f();
    attribution::set_enabled(false);
    out
}

/// A valid configuration: no RF cache, a 1-8 entry RF cache, or a
/// partitioned RF; 1-10 resident waves; 16, 32 or 64 lanes; and memory
/// latencies in either order (`validate` does not order them).
fn gpu_config() -> impl Strategy<Value = GpuConfig> {
    (
        (0u32..3, 1u32..9, 1u32..4, 0u32..40),
        (1u32..11, 0usize..3, 1u32..9),
        (1u32..9, 1u32..4, 0u32..8),
        (0u32..300, 0u32..300, any::<bool>()),
    )
        .prop_map(
            |(
                (rf_kind, entries, fast_latency, fast_regs),
                (waves_per_cu, lanes, compute_units),
                (fma_latency, rf_latency, lds_latency),
                (a, b, miss_below_hit),
            )| {
                let (lo, hi) = (a.min(b), a.max(b) + 1);
                let (mem_hit_latency, mem_miss_latency) =
                    if miss_below_hit { (hi, lo) } else { (lo, hi) };
                GpuConfig {
                    compute_units,
                    lanes_per_cu: [16, 32, 64][lanes],
                    waves_per_cu,
                    fma_latency,
                    rf_latency,
                    rf_cache: (rf_kind == 1).then_some(RfCacheConfig {
                        entries,
                        latency: fast_latency,
                    }),
                    rf_partition: (rf_kind == 2).then_some(PartitionedRfConfig {
                        fast_regs,
                        fast_latency,
                    }),
                    lds_latency,
                    mem_hit_latency,
                    mem_miss_latency,
                    ..GpuConfig::default()
                }
            },
        )
}

/// A short launch of one named kernel: (profile, seed, scheduler
/// window). `sparse` launches get fewer wavefronts than a drawn
/// configuration has CUs (resolved in the test, which knows the CU
/// count), so some CUs run zero waves.
fn launch() -> impl Strategy<Value = (KernelProfile, u64, Option<usize>, bool)> {
    (
        0usize..64,
        1u32..160,
        1u32..24,
        any::<u64>(),
        (any::<bool>(), 1usize..12),
        any::<bool>(),
    )
        .prop_map(|(pick, insts, waves, seed, (scheduled, window), sparse)| {
            let all = kernels::all();
            let mut k = all[pick % all.len()].clone();
            k.insts_per_wavefront = insts;
            k.wavefronts = waves;
            (k, seed, scheduled.then_some(window), sparse)
        })
}

/// The reference fold of a whole launch: `Gpu::run_insts`'
/// round-robin distribution and per-CU seeds over the reference step.
fn reference_launch(
    cfg: &GpuConfig,
    kernel: &KernelProfile,
    insts: &[GpuInst],
    seed: u64,
) -> (GpuStats, Vec<CuProfile>) {
    let cus = cfg.compute_units;
    let (base, extra) = (kernel.wavefronts / cus, kernel.wavefronts % cus);
    let mut stats = GpuStats::default();
    let mut profiles = Vec::new();
    for cu in 0..cus {
        let waves = base + u32::from(cu < extra);
        let cu_seed = seed.wrapping_add(0x9E37 * u64::from(cu) + 1);
        let (s, p) = reference_run_cu_profiled(cfg, insts, kernel, waves, cu_seed);
        stats.merge(&s);
        profiles.push(p);
    }
    (stats, profiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whole launches (`Gpu::run` / `Gpu::run_scheduled`, one shared
    /// plan) and single CUs (`run_cu_profiled`, its own plan) equal the
    /// reference, profiling on and off.
    #[test]
    fn planned_step_matches_per_wavefront_reference(
        cfg in gpu_config(),
        (mut kernel, seed, window, sparse) in launch(),
        cu_waves in 0u32..13,
    ) {
        if sparse && cfg.compute_units > 1 {
            kernel.wavefronts = 1 + kernel.wavefronts % (cfg.compute_units - 1);
        }
        let raw = kernel.generate(seed);
        let insts = match window {
            Some(w) => schedule_kernel(&raw, w).insts,
            None => raw,
        };
        let gpu = Gpu::new(cfg.clone());
        for on in [false, true] {
            let (want, planned) = with_profiling(on, || {
                let want = reference_launch(&cfg, &kernel, &insts, seed);
                let planned = match window {
                    Some(w) => gpu.run_scheduled(&kernel, seed, w),
                    None => gpu.run(&kernel, seed),
                };
                (want, planned)
            });
            prop_assert_eq!(&planned.stats, &want.0, "launch stats, profiling {}", on);
            prop_assert_eq!(&planned.profiles, &want.1, "launch profiles, profiling {}", on);

            let (want, got) = with_profiling(on, || {
                (
                    reference_run_cu_profiled(&cfg, &insts, &kernel, cu_waves, seed),
                    run_cu_profiled(&cfg, &insts, &kernel, cu_waves, seed),
                )
            });
            prop_assert_eq!(&got, &want, "one CU of {} waves, profiling {}", cu_waves, on);
        }
    }
}
