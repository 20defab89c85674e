//! One compute unit: wavefront pool, scoreboard, round-robin issue.
//!
//! The CU hosts up to `waves_per_cu` resident wavefronts and issues one
//! wavefront instruction per cycle (Southern Islands: four SIMDs, each
//! accepting one wavefront instruction every four cycles). Wavefronts
//! execute their kernel in order, gated by a scoreboard: an instruction
//! marked `dep_on_prev` waits for the previous instruction's completion.
//! Latency hiding across wavefronts — the essence of GPU throughput — then
//! emerges: while one wavefront waits on memory or a deep TFET FMA
//! pipeline, others issue.

use hetsim_stats::attribution;

use crate::config::{GpuConfig, WAVEFRONT_THREADS};
use crate::kernel::{GpuInst, GpuOp, KernelProfile};
use crate::partitioned::FastRegSet;
use crate::profile::{CuProfile, CycleClass};
use crate::rfcache::RfCache;
use crate::stats::GpuStats;

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

/// The wavefront-invariant half of a kernel launch: one step per pc,
/// plus the event counters of one wavefront running the whole kernel.
///
/// Every wavefront executes the same instruction stream in program
/// order, starting from an empty RF cache, and a partitioned RF's fast
/// set is a per-kernel compiler decision. So each pc's register-read
/// latency and every RF, LDS and FU counter are the same for every
/// wavefront, whatever the issue interleaving, and simulating the RF
/// cache once per launch is exact. Only the scoreboard timing and the
/// hashed per-(wavefront, pc) DRAM-miss draw differ between wavefronts;
/// [`run_planned`] handles both at issue.
pub(crate) struct IssuePlan {
    steps: Vec<PlanStep>,
    /// Counters of one whole wavefront. `cycles` and `dram_accesses`
    /// stay zero: they depend on the wavefront.
    per_wave: GpuStats,
}

/// One pc of an [`IssuePlan`].
#[derive(Debug, Clone, Copy)]
struct PlanStep {
    /// Register-read latency, plus the FU latency of a VALU or LDS op.
    /// A memory op adds its hit or miss latency at issue.
    latency: u64,
    dep_on_prev: bool,
    is_mem: bool,
}

impl IssuePlan {
    /// Walks `kernel` once through a fresh RF cache (or the partitioned
    /// RF's fast set) under `cfg`.
    pub(crate) fn new(cfg: &GpuConfig, kernel: &[GpuInst]) -> Self {
        let threads = u64::from(WAVEFRONT_THREADS);
        // Static fast-register allocation for a partitioned RF (per
        // kernel, shared by every wavefront — it is a compiler decision).
        let fast_regs = cfg.rf_partition.map(|p| FastRegSet::allocate(kernel, p));
        let mut rfc = cfg.rf_cache.map(|c| RfCache::new(c.entries as usize));
        let mut per_wave = GpuStats::default();
        let steps = kernel
            .iter()
            .map(|inst| {
                let read_latency = read_sources(
                    cfg,
                    rfc.as_mut(),
                    inst,
                    &mut per_wave,
                    threads,
                    fast_regs.as_ref(),
                );
                if let (Some(dst), Some(rfc)) = (inst.dst, rfc.as_mut()) {
                    let evict_before = rfc.evictions();
                    rfc.write(dst);
                    per_wave.rf_cache_accesses += threads;
                    per_wave.vector_rf_accesses += (rfc.evictions() - evict_before) * threads;
                } else if let (Some(dst), Some(fast)) = (inst.dst, fast_regs.as_ref()) {
                    if fast.is_fast(dst) {
                        per_wave.rf_fast_accesses += threads;
                    } else {
                        per_wave.vector_rf_accesses += threads;
                    }
                } else if inst.dst.is_some() {
                    per_wave.vector_rf_accesses += threads;
                }
                let fu_latency = match inst.op {
                    GpuOp::Valu => {
                        per_wave.valu_insts += 1;
                        per_wave.thread_fma_ops += threads;
                        u64::from(cfg.fma_latency)
                    }
                    GpuOp::Mem => {
                        per_wave.mem_insts += 1;
                        0
                    }
                    GpuOp::Lds => {
                        per_wave.lds_insts += 1;
                        per_wave.lds_accesses += threads;
                        u64::from(cfg.lds_latency)
                    }
                };
                per_wave.wavefront_insts += 1;
                PlanStep {
                    latency: read_latency + fu_latency,
                    dep_on_prev: inst.dep_on_prev,
                    is_mem: inst.op == GpuOp::Mem,
                }
            })
            .collect();
        IssuePlan { steps, per_wave }
    }

    /// The wavefront-invariant counters of `waves` whole wavefronts.
    /// Every field is listed, so a new counter cannot be left unscaled.
    fn counters_for(&self, waves: u64) -> GpuStats {
        let w = &self.per_wave;
        GpuStats {
            cycles: 0,
            wavefront_insts: w.wavefront_insts * waves,
            valu_insts: w.valu_insts * waves,
            mem_insts: w.mem_insts * waves,
            lds_insts: w.lds_insts * waves,
            thread_fma_ops: w.thread_fma_ops * waves,
            vector_rf_accesses: w.vector_rf_accesses * waves,
            rf_cache_accesses: w.rf_cache_accesses * waves,
            rf_fast_accesses: w.rf_fast_accesses * waves,
            rf_cache_hits: w.rf_cache_hits * waves,
            rf_cache_misses: w.rf_cache_misses * waves,
            lds_accesses: w.lds_accesses * waves,
            dram_accesses: 0,
        }
    }
}

/// Per-wavefront execution state, struct-of-arrays: the issue scan is a
/// dense walk over small parallel vectors (`pc`, `next_issue`,
/// `prev_done`) instead of hopping across per-wave structs, and the
/// rarely-touched `id` stays out of the scanned lines.
struct WavePool {
    /// Global wavefront ids (stable across configurations).
    id: Vec<u64>,
    pc: Vec<u32>,
    /// Completion time of each wavefront's previous instruction
    /// (scoreboard).
    prev_done: Vec<u64>,
    /// Earliest cycle each wavefront may issue again (SIMD occupancy).
    next_issue: Vec<u64>,
}

/// Runs `wave_count` wavefronts of `kernel` on one compute unit.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_cu(
    cfg: &GpuConfig,
    kernel: &[GpuInst],
    profile: &KernelProfile,
    wave_count: u32,
    seed: u64,
) -> GpuStats {
    run_cu_profiled(cfg, kernel, profile, wave_count, seed).0
}

/// Like [`run_cu`], but also returns the top-down cycle attribution:
/// every cycle charged to exactly one class (summing to
/// `GpuStats::cycles`), plus the wave-residency histogram when
/// process-wide profiling is enabled.
///
/// Builds its own issue plan (see `IssuePlan`); a whole-GPU launch
/// ([`crate::gpu::Gpu`]) builds one and shares it across its CUs.
///
/// # Panics
///
/// As for [`run_cu`].
pub fn run_cu_profiled(
    cfg: &GpuConfig,
    kernel: &[GpuInst],
    profile: &KernelProfile,
    wave_count: u32,
    seed: u64,
) -> (GpuStats, CuProfile) {
    cfg.validate().expect("valid GPU config");
    run_planned(cfg, &IssuePlan::new(cfg, kernel), profile, wave_count, seed)
}

/// The CU step over a prebuilt plan: `cfg` must be the configuration
/// `plan` was built under. The loop does only the per-wavefront work
/// (scoreboard, issue timing, DRAM-miss draws); the other counters are
/// the plan's per-wavefront totals times `wave_count`.
pub(crate) fn run_planned(
    cfg: &GpuConfig,
    plan: &IssuePlan,
    profile: &KernelProfile,
    wave_count: u32,
    seed: u64,
) -> (GpuStats, CuProfile) {
    let mut attrib = CuProfile::default();
    if wave_count == 0 || plan.steps.is_empty() {
        return (GpuStats::default(), attrib);
    }
    let mut stats = plan.counters_for(u64::from(wave_count));
    let profiling = attribution::enabled();
    let steps = plan.steps.as_slice();
    let issue_occupancy = u64::from(cfg.issue_cycles_per_wavefront());
    let mem_hit_latency = u64::from(cfg.mem_hit_latency);
    let mem_miss_latency = u64::from(cfg.mem_miss_latency);

    // Waves beyond the resident limit start as soon as a slot frees; model
    // by batching (each batch fully resident, conservative on tail
    // effects, which are small for the launch sizes used).
    let resident = cfg.waves_per_cu.min(wave_count);
    let batches = wave_count.div_ceil(resident);
    let kernel_len = u32::try_from(steps.len()).expect("kernel fits in u32 pcs");
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
                let step = steps[pc as usize];
                let dep = if step.dep_on_prev {
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
                            dep > pool.next_issue[i] && steps[(pc - 1) as usize].is_mem;
                    }
                    continue;
                }
                // ---- Issue this wavefront instruction ----
                let mut latency = step.latency;
                if step.is_mem {
                    let key = pool.id[i]
                        .wrapping_mul(0x1000_0001)
                        .wrapping_add(u64::from(pc));
                    latency += if hashed_bool(key, profile.mem_miss_rate) {
                        stats.dram_accesses += 1;
                        mem_miss_latency
                    } else {
                        mem_hit_latency
                    };
                }
                pool.prev_done[i] = cycle + latency;
                pool.next_issue[i] = cycle + issue_occupancy;
                pool.pc[i] = pc + 1;
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
    crate::telemetry::record(skipped_cycles, wakeup_jumps);
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

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::kernels;

    fn small_kernel() -> (KernelProfile, Vec<GpuInst>) {
        let mut p = kernels::profile("matmul").expect("known kernel");
        p.insts_per_wavefront = 500;
        p.wavefronts = 8;
        let insts = p.generate(3);
        (p, insts)
    }

    #[test]
    fn all_wavefronts_complete() {
        let (p, insts) = small_kernel();
        let stats = run_cu(&GpuConfig::default(), &insts, &p, 8, 1);
        assert_eq!(stats.wavefront_insts, 8 * 500);
        assert!(stats.cycles >= 8 * 500, "1 issue/cycle bound");
    }

    #[test]
    fn more_wavefronts_hide_latency() {
        let (p, insts) = small_kernel();
        let one = run_cu(&GpuConfig::default(), &insts, &p, 1, 1);
        let eight = run_cu(&GpuConfig::default(), &insts, &p, 8, 1);
        // 8 waves do 8x the work in far less than 8x the time.
        let scaling = eight.cycles as f64 / one.cycles as f64;
        assert!(
            scaling < 4.0,
            "8x work should take <4x time, took {scaling:.2}x"
        );
    }

    #[test]
    fn tfet_latencies_hurt_less_with_occupancy() {
        let (p, insts) = small_kernel();
        let mut tfet = GpuConfig::default();
        tfet.fma_latency = 6;
        tfet.rf_latency = 2;
        tfet.rf_cache = None;
        let mut cmos = GpuConfig::default();
        cmos.rf_cache = None;

        let slow_1 = run_cu(&tfet, &insts, &p, 1, 1).cycles as f64
            / run_cu(&cmos, &insts, &p, 1, 1).cycles as f64;
        let slow_8 = run_cu(&tfet, &insts, &p, 8, 1).cycles as f64
            / run_cu(&cmos, &insts, &p, 8, 1).cycles as f64;
        assert!(
            slow_8 < slow_1,
            "occupancy should hide TFET latency: 1-wave slowdown {slow_1:.2}, 8-wave {slow_8:.2}"
        );
    }

    #[test]
    fn rf_cache_recovers_performance() {
        let (p, insts) = small_kernel();
        let mut base = GpuConfig::default();
        base.rf_latency = 2; // TFET RF
        base.rf_cache = None;
        let mut cached = base.clone();
        cached.rf_cache = Some(crate::config::RfCacheConfig::default());
        let without = run_cu(&base, &insts, &p, 8, 1).cycles;
        let with = run_cu(&cached, &insts, &p, 8, 1).cycles;
        assert!(
            with <= without,
            "RF cache must not slow things down: {with} vs {without}"
        );
    }

    #[test]
    fn rf_cache_hit_rate_is_meaningful() {
        let (p, insts) = small_kernel();
        let stats = run_cu(&GpuConfig::default(), &insts, &p, 8, 1);
        let hr = stats.rf_cache_hit_rate();
        assert!(hr > 0.2, "written-value reuse should hit: {hr}");
        assert!(hr < 0.9, "long-lived values should miss: {hr}");
    }

    #[test]
    fn zero_waves_is_empty_run() {
        let (p, insts) = small_kernel();
        let stats = run_cu(&GpuConfig::default(), &insts, &p, 0, 1);
        assert_eq!(stats.wavefront_insts, 0);
        assert_eq!(stats.cycles, 0);
    }
}
