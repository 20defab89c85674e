//! Ablations of the design choices DESIGN.md calls out.
//!
//! * asymmetric DL1 — fast-way size (the paper fixes 4 KB; this sweep
//!   shows the sensitivity).
//! * steering — dual-speed ALU steering window length (the paper uses
//!   the issue width, 4).
//! * RF cache — GPU register-file cache size (the paper uses 6
//!   entries/thread).
//! * power factor — conservative 4x vs measured 6.1x vs ideal 8x TFET
//!   dynamic-power assumptions (Section V-B).
//!
//! ```text
//! cargo run --release --example ablations
//! ```

#![allow(clippy::field_reassign_with_default)]

use hetcore::config::CpuDesign;
use hetsim_cpu::config::{CoreConfig, MemoryConfig, SteeringPolicy};
use hetsim_cpu::core::Core;
use hetsim_cpu::fu::FuPoolConfig;
use hetsim_device::scaling::PowerAssumption;
use hetsim_gpu::config::{GpuConfig, RfCacheConfig};
use hetsim_gpu::gpu::Gpu;
use hetsim_gpu::kernels;
use hetsim_mem::asymmetric::AsymmetricCache;
use hetsim_mem::cache::CacheConfig;
use hetsim_trace::apps;
use hetsim_trace::stream::TraceGenerator;

/// Measured instructions per CPU run (after a 20k-instruction warmup);
/// the sweeps' shapes at this budget match the full runs.
const INSTS: u64 = 40_000;

/// Workload seed of every run.
const SEED: u64 = 42;

fn run_cpu_cycles(cfg: CoreConfig) -> u64 {
    let app = apps::profile("lu").expect("known app");
    let mut core = Core::new(cfg, 0);
    core.prewarm(0, app.memory.working_set_bytes);
    core.run_warmed(TraceGenerator::new(&app, SEED), 20_000, INSTS)
        .stats
        .cycles
}

/// Fast-way size sweep: 2/4/8 KB fast partitions over a TFET slow rest.
fn ablation_asym_dl1() {
    println!("\nAblation: asymmetric DL1 fast-way size (lu, cycles lower = better)");
    let base = {
        let mut cfg = CoreConfig::default();
        cfg.fus = FuPoolConfig::tfet();
        cfg.memory = MemoryConfig::tfet();
        run_cpu_cycles(cfg)
    };
    println!("  plain TFET DL1 (BaseHet): {base}");
    // Fast-way size -> (slow capacity, slow ways) keeping 32 KB total and
    // a power-of-two set count.
    for (fast_kb, slow_kb, slow_ways) in [(2u64, 30u64, 15u32), (4, 28, 7), (8, 24, 6)] {
        let mut asym = AsymmetricCache::new(
            CacheConfig::new(fast_kb * 1024, 1, 64, 1),
            CacheConfig::new(slow_kb * 1024, slow_ways, 64, 4),
        );
        // Drive with the app's address stream to measure fast-hit rate.
        let app = apps::profile("lu").expect("known app");
        let mut hits = 0u64;
        let mut total = 0u64;
        for inst in TraceGenerator::new(&app, SEED).take(120_000) {
            if let Some(addr) = inst.addr {
                let out = asym.access(addr, inst.op == hetsim_trace::OpClass::Store);
                if out.hit == hetsim_mem::asymmetric::AsymHit::Fast {
                    hits += 1;
                }
                total += 1;
            }
        }
        println!(
            "  fast way {fast_kb} KB: fast-hit rate {:.3} (AdvHet cycles at 4 KB: {})",
            hits as f64 / total as f64,
            if fast_kb == 4 {
                run_cpu_cycles(CpuDesign::AdvHet.core_config())
            } else {
                0
            }
        );
    }
}

/// Steering-window sweep: 0 (no steering) / 2 / 4 (paper) / 8.
fn ablation_steering() {
    println!("\nAblation: dual-speed ALU steering window (lu, cycles)");
    for window in [0u32, 2, 4, 8] {
        let mut cfg = CoreConfig::default();
        cfg.fus = FuPoolConfig::dual_speed();
        cfg.memory = MemoryConfig::tfet();
        cfg.steering = if window == 0 {
            SteeringPolicy::None
        } else {
            SteeringPolicy::DualSpeed { window }
        };
        println!("  window {window}: {}", run_cpu_cycles(cfg));
    }
}

/// GPU RF-cache size sweep: 0 (none) / 2 / 6 (paper) / 12 entries.
fn ablation_rfcache() {
    println!("\nAblation: GPU register-file cache size (matmul, cycles)");
    let kernel = kernels::profile("matmul").expect("known kernel");
    for entries in [0u32, 2, 6, 12] {
        let mut cfg = GpuConfig::default();
        cfg.fma_latency = 6;
        cfg.rf_latency = 2;
        cfg.rf_cache = (entries > 0).then_some(RfCacheConfig {
            entries,
            latency: 1,
        });
        let r = Gpu::new(cfg).run(&kernel, SEED);
        println!(
            "  {entries:>2} entries: cycles {} (RFC hit rate {:.3})",
            r.stats.cycles,
            r.stats.rf_cache_hit_rate()
        );
    }
}

/// TFET dynamic-power assumption sweep (Section V-B's 8x -> 6.1x -> 4x).
fn ablation_power_factor() {
    println!("\nAblation: TFET dynamic-power assumption (AdvHet energy vs BaseCMOS, lu)");
    let app = apps::profile("lu").expect("known app");

    let run = |design: CpuDesign| {
        let mut core = Core::new(design.core_config(), 0);
        core.prewarm(0, app.memory.working_set_bytes);
        core.run_warmed(TraceGenerator::new(&app, SEED), 20_000, INSTS)
    };
    let base_run = run(CpuDesign::BaseCmos);
    let base_energy = CpuDesign::BaseCmos.energy_model().energy(
        &base_run.stats,
        &base_run.mem,
        base_run.seconds(),
    );
    let adv_run = run(CpuDesign::AdvHet);

    for assumption in [
        PowerAssumption::Conservative,
        PowerAssumption::Measured,
        PowerAssumption::Ideal,
    ] {
        // Same timing run, repriced under a different TFET assumption.
        let mut assignment = CpuDesign::AdvHet.energy_model().assignment().clone();
        assignment.assumption = assumption;
        let model = hetsim_power::account::CpuEnergyModel::new(assignment)
            .with_dual_speed_alu()
            .with_structure(192, 128);
        let e = model.energy(&adv_run.stats, &adv_run.mem, adv_run.seconds());
        println!(
            "  {assumption:?} ({}x): AdvHet energy {:.3} of BaseCMOS",
            assumption.dynamic_power_ratio(),
            e.total_j() / base_energy.total_j()
        );
    }
}

fn main() {
    ablation_asym_dl1();
    ablation_steering();
    ablation_rfcache();
    ablation_power_factor();
}
