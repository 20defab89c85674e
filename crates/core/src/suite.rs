//! The full experiment suite: one entry point per paper table/figure.
//!
//! [`Suite`] holds the run parameters (instruction budget per application,
//! seed); each `table*`/`fig*` method regenerates the corresponding
//! artifact as a [`Report`]. CPU figures 7/8/9/13 share one *campaign* (the
//! full design x application sweep) so the expensive simulations run once;
//! GPU figures 10/11/12 share another.

use hetsim_device::activity::figure2_series;
use hetsim_device::dvfs::DvfsController;
use hetsim_device::iv::IvCurve;
use hetsim_device::tech::Technology;
use hetsim_device::variation::{CMOS_GUARDBAND_V, TFET_GUARDBAND_V};
use hetsim_device::vf::VfCurve;
use hetsim_power::assignment::VoltageFactors;
use hetsim_runner::{run_partitioned, Job, Runner};
use hetsim_trace::apps;

use crate::campaign::{cpu_job, gpu_job};
use crate::config::{CpuDesign, GpuDesign};
use crate::experiment::{CpuOutcome, GpuOutcome};
use crate::report::{normalize, Report};

/// A labeled metric extractor over a value type.
type MetricRow<T> = (&'static str, fn(&T) -> f64);

/// The paper's baseline chip: 4 CPU cores (Section VI).
pub const BASELINE_CORES: u32 = 4;
/// The AdvHet-2X chip: 8 cores at the BaseCMOS power budget.
pub const TWOX_CORES: u32 = 8;

/// Extension experiments beyond the paper's own tables/figures: the
/// Section VIII comparisons and the future-work techniques, implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extension {
    /// Iso-area comparison vs. the barrier-aware thread-migration CMP.
    Migration,
    /// Partitioned vector RF vs. the RF cache on the GPU.
    PartitionedRf,
    /// Compiler latency-hiding scheduling on the GPU.
    Scheduling,
}

impl Extension {
    /// Every extension.
    pub const ALL: [Extension; 3] = [
        Extension::Migration,
        Extension::PartitionedRf,
        Extension::Scheduling,
    ];

    /// CLI name.
    pub fn cli_name(self) -> &'static str {
        match self {
            Extension::Migration => "ext-migration",
            Extension::PartitionedRf => "ext-partrf",
            Extension::Scheduling => "ext-sched",
        }
    }

    /// Parses a CLI name.
    pub fn from_cli_name(s: &str) -> Option<Extension> {
        Extension::ALL.into_iter().find(|e| e.cli_name() == s)
    }
}

/// Experiment identifiers, one per paper table/figure reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Experiment {
    /// Table I: device characteristics at 15 nm.
    Table1,
    /// Figure 1: Id-Vg of N-HetJTFET vs. N-MOSFET.
    Fig1,
    /// Figure 2: ALU power vs. activity factor.
    Fig2,
    /// Figure 3: V_dd-frequency curves.
    Fig3,
    /// Figure 7: CPU execution time, normalized to BaseCMOS.
    Fig7,
    /// Figure 8: CPU energy, normalized to BaseCMOS.
    Fig8,
    /// Figure 9: CPU ED^2, normalized to BaseCMOS.
    Fig9,
    /// Figure 10: GPU execution time, normalized to BaseCMOS.
    Fig10,
    /// Figure 11: GPU energy, normalized to BaseCMOS.
    Fig11,
    /// Figure 12: GPU ED^2, normalized to BaseCMOS.
    Fig12,
    /// Figure 13: sensitivity analysis across the alternative CPU designs.
    Fig13,
    /// Figure 14: DVFS and process-variation impact on energy.
    Fig14,
}

impl Experiment {
    /// Every experiment, in paper order.
    pub const ALL: [Experiment; 12] = [
        Experiment::Table1,
        Experiment::Fig1,
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Fig12,
        Experiment::Fig13,
        Experiment::Fig14,
    ];

    /// CLI name (`table1`, `fig7`, ...).
    pub fn cli_name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig1 => "fig1",
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
        }
    }

    /// Parses a CLI name.
    pub fn from_cli_name(s: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.cli_name() == s)
    }
}

/// Run parameters for the suite.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// Dynamic instructions per CPU application (split across the chip's
    /// cores).
    pub insts_per_app: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Suite {
    fn default() -> Self {
        Suite {
            insts_per_app: 300_000,
            seed: 42,
        }
    }
}

/// All CPU outcomes of the design x application sweep.
#[derive(Debug, Clone)]
pub struct CpuCampaign {
    /// `outcomes[app_idx][design_idx]`, designs in [`CpuDesign::ALL`]
    /// order, then the AdvHet-2X chip last.
    pub outcomes: Vec<Vec<CpuOutcome>>,
    /// Application names, row order.
    pub app_names: Vec<&'static str>,
}

/// Column labels of the CPU campaign: the ten designs plus AdvHet-2X.
pub fn cpu_campaign_columns() -> Vec<String> {
    CpuDesign::ALL
        .iter()
        .map(|d| d.name().to_string())
        .chain(std::iter::once("AdvHet-2X".to_string()))
        .collect()
}

/// All GPU outcomes of the design x kernel sweep.
#[derive(Debug, Clone)]
pub struct GpuCampaign {
    /// `outcomes[kernel_idx][design_idx]` in [`GpuDesign::ALL`] order.
    pub outcomes: Vec<Vec<GpuOutcome>>,
    /// Kernel names, row order.
    pub kernel_names: Vec<&'static str>,
}

impl Suite {
    // ---------------------------------------------------------------
    // Device-level artifacts (Tables/Figures from Sections II-III).
    // ---------------------------------------------------------------

    /// Table I: characteristics of the four technologies at 15 nm.
    pub fn table1(&self) -> Report {
        let mut r = Report::new(
            "Table I: CMOS and TFET technologies at 15nm",
            Technology::ALL.iter().map(|t| t.to_string()).collect(),
        );
        let rows: [MetricRow<hetsim_device::DeviceParams>; 9] = [
            ("Supply voltage (V)", |p| p.supply_voltage_v),
            ("Switching delay (ps)", |p| p.switching_delay_ps),
            ("Interconnect delay (ps)", |p| p.interconnect_delay_ps),
            ("32b ALU delay (ps)", |p| p.alu32_delay_ps),
            ("Switching energy (aJ)", |p| p.switching_energy_aj),
            ("Interconnect energy (aJ)", |p| p.interconnect_energy_aj),
            ("32b ALU dyn energy (fJ)", |p| p.alu32_dynamic_energy_fj),
            ("32b ALU leakage (uW)", |p| p.alu32_leakage_uw),
            ("ALU power density (W/cm2)", |p| p.alu_power_density_w_cm2),
        ];
        for (label, f) in rows {
            r.push_row(
                label,
                Technology::ALL.iter().map(|t| f(&t.params())).collect(),
            );
        }
        r
    }

    /// Figure 1: Id-Vg curves of N-HetJTFET vs. N-MOSFET.
    pub fn fig1(&self) -> Report {
        let mut r = Report::new(
            "Figure 1: Id-Vg (uA/um) of N-HetJTFET vs N-MOSFET",
            vec!["HetJTFET".into(), "MOSFET".into()],
        );
        let tfet = IvCurve::n_hetjtfet();
        let mos = IvCurve::n_mosfet();
        for i in 0..=16 {
            let vg = 0.05 * i as f64;
            r.push_row(
                format!("Vg={vg:.2}V"),
                vec![tfet.drain_current(vg), mos.drain_current(vg)],
            );
        }
        r
    }

    /// Figure 2: total ALU power vs. activity factor.
    pub fn fig2(&self) -> Report {
        let mut r = Report::new(
            "Figure 2: ALU power (uW) vs activity factor",
            vec!["Si-CMOS".into(), "HetJTFET".into(), "ratio".into()],
        );
        for p in figure2_series(1e-4, 13) {
            r.push_row(
                format!("af={:.4}", p.af),
                vec![p.cmos_w * 1e6, p.tfet_w * 1e6, p.ratio],
            );
        }
        r
    }

    /// Figure 3: V_dd-frequency curves.
    pub fn fig3(&self) -> Report {
        let mut r = Report::new(
            "Figure 3: Vdd-frequency curves (GHz)",
            vec!["Si-CMOS".into(), "HetJTFET".into()],
        );
        let cmos = VfCurve::for_technology(Technology::SiCmos);
        let tfet = VfCurve::for_technology(Technology::HetJTfet);
        for i in 0..=13 {
            let v = 0.20 + 0.05 * i as f64;
            r.push_row(
                format!("Vdd={v:.2}V"),
                vec![cmos.frequency_at(v) / 1e9, tfet.frequency_at(v) / 1e9],
            );
        }
        r
    }

    // ---------------------------------------------------------------
    // CPU evaluation (Figures 7-9, 13).
    // ---------------------------------------------------------------

    /// Runs the full CPU campaign serially (see [`Suite::cpu_campaign_with`]).
    pub fn cpu_campaign(&self) -> CpuCampaign {
        self.cpu_campaign_with(&Runner::serial())
    }

    /// The CPU campaign's job batch in canonical submission order —
    /// every Table IV design on every application as a 4-core chip,
    /// plus the 8-core AdvHet-2X chip, row-major (app, then design).
    fn cpu_campaign_jobs(&self) -> Vec<Job<CpuOutcome>> {
        let mut jobs: Vec<Job<CpuOutcome>> = Vec::new();
        for app in &apps::all() {
            for design in CpuDesign::ALL {
                jobs.push(cpu_job(
                    design,
                    BASELINE_CORES,
                    app,
                    self.seed,
                    self.insts_per_app,
                ));
            }
            jobs.push(cpu_job(
                CpuDesign::AdvHet,
                TWOX_CORES,
                app,
                self.seed,
                self.insts_per_app,
            ));
        }
        jobs
    }

    /// Runs the full CPU campaign — every Table IV design on every
    /// application as a 4-core chip, plus the 8-core AdvHet-2X chip —
    /// as one job batch on `runner`.
    ///
    /// Jobs are submitted in row-major (app, then design) order and the
    /// runner merges results by submission index, so the campaign is
    /// identical for any worker count.
    pub fn cpu_campaign_with(&self, runner: &Runner<CpuOutcome>) -> CpuCampaign {
        self.cpu_campaign_sharded(std::slice::from_ref(runner))
    }

    /// Runs the full CPU campaign split across `runners` by
    /// [`run_partitioned`] (one shard per runner, `--shards`). Outcomes
    /// merge by submission index, so the campaign is identical for any
    /// number of runners.
    pub fn cpu_campaign_sharded(&self, runners: &[Runner<CpuOutcome>]) -> CpuCampaign {
        let all_apps = apps::all();
        let mut results = run_partitioned(runners, self.cpu_campaign_jobs()).into_iter();
        let per_app = CpuDesign::ALL.len() + 1;
        let outcomes = all_apps
            .iter()
            .map(|_| results.by_ref().take(per_app).collect())
            .collect();
        CpuCampaign {
            outcomes,
            app_names: all_apps.iter().map(|a| a.name).collect(),
        }
    }

    /// The Figure 7/8/9 design columns (subset of the campaign).
    fn fig789_designs() -> Vec<(usize, String)> {
        // Campaign indices of: BaseCMOS, BaseCMOS-Enh, BaseTFET, BaseHet,
        // AdvHet, AdvHet-2X.
        let order = [
            CpuDesign::BaseCmos,
            CpuDesign::BaseCmosEnh,
            CpuDesign::BaseTfet,
            CpuDesign::BaseHet,
            CpuDesign::AdvHet,
        ];
        let mut cols: Vec<(usize, String)> = order
            .iter()
            .map(|d| {
                let idx = CpuDesign::ALL
                    .iter()
                    .position(|x| x == d)
                    .expect("design in ALL");
                (idx, d.name().to_string())
            })
            .collect();
        cols.push((CpuDesign::ALL.len(), "AdvHet-2X".to_string()));
        cols
    }

    fn cpu_metric_report(
        &self,
        campaign: &CpuCampaign,
        title: &str,
        metric: impl Fn(&CpuOutcome) -> f64,
    ) -> Report {
        let cols = Self::fig789_designs();
        let mut r = Report::new(
            title,
            cols.iter()
                .map(|(_, name)| name.clone())
                .collect::<Vec<_>>(),
        );
        let base_idx = 0; // BaseCMOS is the first column
        for (app, row) in campaign.app_names.iter().zip(&campaign.outcomes) {
            let values: Vec<f64> = cols.iter().map(|(i, _)| metric(&row[*i])).collect();
            r.push_row(*app, normalize(&values, base_idx));
        }
        r.push_mean();
        r
    }

    /// Figure 7: execution time, normalized to BaseCMOS.
    pub fn fig7(&self, campaign: &CpuCampaign) -> Report {
        self.cpu_metric_report(
            campaign,
            "Figure 7: CPU execution time (normalized to BaseCMOS)",
            |o| o.seconds,
        )
    }

    /// Figure 8: energy, normalized to BaseCMOS.
    pub fn fig8(&self, campaign: &CpuCampaign) -> Report {
        self.cpu_metric_report(
            campaign,
            "Figure 8: CPU energy (normalized to BaseCMOS)",
            |o| o.energy.total_j(),
        )
    }

    /// Figure 8's breakdown detail: mean dynamic/leakage shares per bucket
    /// for each design (the stacking inside the paper's bars).
    pub fn fig8_breakdown(&self, campaign: &CpuCampaign) -> Report {
        let cols = Self::fig789_designs();
        let mut r = Report::new(
            "Figure 8 (breakdown): mean energy by component, normalized to BaseCMOS total",
            cols.iter().map(|(_, n)| n.clone()).collect::<Vec<_>>(),
        );
        let parts: [MetricRow<hetsim_power::EnergyBreakdown>; 6] = [
            ("core dynamic", |e| e.core_dynamic_j),
            ("core leakage", |e| e.core_leakage_j),
            ("L2 dynamic", |e| e.l2_dynamic_j),
            ("L2 leakage", |e| e.l2_leakage_j),
            ("L3 dynamic", |e| e.l3_dynamic_j),
            ("L3 leakage", |e| e.l3_leakage_j),
        ];
        for (label, f) in parts {
            let mut values = vec![0.0; cols.len()];
            for row in &campaign.outcomes {
                let base_total = row[0].energy.total_j();
                for (k, (i, _)) in cols.iter().enumerate() {
                    values[k] += f(&row[*i].energy) / base_total;
                }
            }
            for v in &mut values {
                *v /= campaign.outcomes.len() as f64;
            }
            r.push_row(label, values);
        }
        r
    }

    /// Figure 9: ED^2, normalized to BaseCMOS.
    pub fn fig9(&self, campaign: &CpuCampaign) -> Report {
        self.cpu_metric_report(
            campaign,
            "Figure 9: CPU ED^2 (normalized to BaseCMOS)",
            CpuOutcome::ed2,
        )
    }

    /// Figure 13: mean time/energy/ED/ED^2 of the alternative designs.
    pub fn fig13(&self, campaign: &CpuCampaign) -> Report {
        let designs = [
            CpuDesign::BaseCmos,
            CpuDesign::BaseL3,
            CpuDesign::BaseHighVt,
            CpuDesign::BaseHetFastAlu,
            CpuDesign::BaseHet,
            CpuDesign::BaseHetEnh,
            CpuDesign::BaseHetSplit,
            CpuDesign::AdvHet,
        ];
        let mut r = Report::new(
            "Figure 13: sensitivity analysis (means, normalized to BaseCMOS)",
            designs
                .iter()
                .map(|d| d.name().to_string())
                .collect::<Vec<_>>(),
        );
        let metrics: [MetricRow<CpuOutcome>; 4] = [
            ("time", |o| o.seconds),
            ("energy", |o| o.energy.total_j()),
            ("ED", |o| o.ed()),
            ("ED^2", |o| o.ed2()),
        ];
        for (label, metric) in metrics {
            let mut values = vec![0.0; designs.len()];
            for row in &campaign.outcomes {
                let base = metric(&row[0]);
                for (k, d) in designs.iter().enumerate() {
                    let idx = CpuDesign::ALL.iter().position(|x| x == d).expect("in ALL");
                    values[k] += metric(&row[idx]) / base;
                }
            }
            for v in &mut values {
                *v /= campaign.outcomes.len() as f64;
            }
            r.push_row(label, values);
        }
        r
    }

    /// The Section VII-A1 premise check: chip power of the 8-core
    /// AdvHet-2X vs. the 4-core BaseCMOS (the "fixed power budget").
    pub fn power_budget(&self, campaign: &CpuCampaign) -> Report {
        let mut r = Report::new(
            "Power budget (Section VII-A1): chip power, normalized to 4-core BaseCMOS",
            vec![
                "BaseCMOS x4".into(),
                "AdvHet x4".into(),
                "AdvHet-2X x8".into(),
            ],
        );
        let advhet_idx = CpuDesign::ALL
            .iter()
            .position(|d| *d == CpuDesign::AdvHet)
            .expect("AdvHet in ALL");
        for (app, row) in campaign.app_names.iter().zip(&campaign.outcomes) {
            let base = row[0].power_w();
            r.push_row(
                *app,
                vec![
                    1.0,
                    row[advhet_idx].power_w() / base,
                    row[CpuDesign::ALL.len()].power_w() / base,
                ],
            );
        }
        r.push_mean();
        r
    }

    // ---------------------------------------------------------------
    // GPU evaluation (Figures 10-12).
    // ---------------------------------------------------------------

    /// Runs the full GPU campaign serially (see [`Suite::gpu_campaign_with`]).
    pub fn gpu_campaign(&self) -> GpuCampaign {
        self.gpu_campaign_with(&Runner::serial())
    }

    /// The GPU campaign's job batch in canonical submission order
    /// (kernel-major) — the GPU counterpart of
    /// [`Suite::cpu_campaign_jobs`].
    fn gpu_campaign_jobs(&self) -> Vec<Job<GpuOutcome>> {
        hetsim_gpu::kernels::all()
            .iter()
            .flat_map(|kernel| {
                GpuDesign::ALL
                    .iter()
                    .map(|&d| gpu_job(d, kernel, self.seed))
            })
            .collect()
    }

    /// Runs the full GPU campaign — every design on every kernel — as
    /// one job batch on `runner` (submission order: kernel-major).
    pub fn gpu_campaign_with(&self, runner: &Runner<GpuOutcome>) -> GpuCampaign {
        self.gpu_campaign_sharded(std::slice::from_ref(runner))
    }

    /// Runs the full GPU campaign split across `runners` (see
    /// [`Suite::cpu_campaign_sharded`]).
    pub fn gpu_campaign_sharded(&self, runners: &[Runner<GpuOutcome>]) -> GpuCampaign {
        let kernels = hetsim_gpu::kernels::all();
        let mut results = run_partitioned(runners, self.gpu_campaign_jobs()).into_iter();
        let outcomes = kernels
            .iter()
            .map(|_| results.by_ref().take(GpuDesign::ALL.len()).collect())
            .collect();
        GpuCampaign {
            outcomes,
            kernel_names: kernels.iter().map(|k| k.name).collect(),
        }
    }

    fn gpu_metric_report(
        &self,
        campaign: &GpuCampaign,
        title: &str,
        metric: impl Fn(&GpuOutcome) -> f64,
    ) -> Report {
        let mut r = Report::new(
            title,
            GpuDesign::ALL
                .iter()
                .map(|d| d.name().to_string())
                .collect::<Vec<_>>(),
        );
        for (kernel, row) in campaign.kernel_names.iter().zip(&campaign.outcomes) {
            let values: Vec<f64> = row.iter().map(&metric).collect();
            r.push_row(*kernel, normalize(&values, 0));
        }
        r.push_mean();
        r
    }

    /// Figure 10: GPU execution time, normalized to BaseCMOS.
    pub fn fig10(&self, campaign: &GpuCampaign) -> Report {
        self.gpu_metric_report(
            campaign,
            "Figure 10: GPU execution time (normalized to BaseCMOS)",
            |o| o.seconds,
        )
    }

    /// Figure 11: GPU energy, normalized to BaseCMOS.
    pub fn fig11(&self, campaign: &GpuCampaign) -> Report {
        self.gpu_metric_report(
            campaign,
            "Figure 11: GPU energy (normalized to BaseCMOS)",
            |o| o.energy.total_j(),
        )
    }

    /// Figure 12: GPU ED^2, normalized to BaseCMOS.
    pub fn fig12(&self, campaign: &GpuCampaign) -> Report {
        self.gpu_metric_report(
            campaign,
            "Figure 12: GPU ED^2 (normalized to BaseCMOS)",
            GpuOutcome::ed2,
        )
    }

    // ---------------------------------------------------------------
    // DVFS and process variation (Figure 14).
    // ---------------------------------------------------------------

    /// Figure 14: energy of BaseCMOS and AdvHet at 1.5/2/2.5 GHz and under
    /// process-variation guardbands, normalized to BaseCMOS at 2 GHz.
    pub fn fig14(&self) -> Report {
        let dvfs = DvfsController::new();
        let nominal = dvfs.nominal();
        let points: Vec<(String, f64, VoltageFactors)> = vec![
            ("BaseFreq-2GHz".into(), 2.0e9, VoltageFactors::default()),
            (
                "BoostFreq-2.5GHz".into(),
                2.5e9,
                factors_for(&dvfs, 2.5e9, nominal.v_cmos, nominal.v_tfet),
            ),
            (
                "SlowFreq-1.5GHz".into(),
                1.5e9,
                factors_for(&dvfs, 1.5e9, nominal.v_cmos, nominal.v_tfet),
            ),
            (
                "ProcessVar-2GHz".into(),
                2.0e9,
                VoltageFactors::from_voltages(
                    nominal.v_cmos + CMOS_GUARDBAND_V,
                    nominal.v_cmos,
                    nominal.v_tfet + TFET_GUARDBAND_V,
                    nominal.v_tfet,
                ),
            ),
        ];

        let mut r = Report::new(
            "Figure 14: DVFS & process variation — energy normalized to BaseCMOS@2GHz",
            vec!["BaseCMOS".into(), "AdvHet".into()],
        );
        // Use a representative subset of apps to bound runtime. The
        // profiles and per-(point, design) energy models are hoisted out
        // of the inner loop, and the instruction streams come from the
        // trace memo: every sweep point re-runs the same (app, seed)
        // streams, so generation is paid once, not once per point and
        // design.
        let selected = ["fft", "lu", "radix", "canneal", "blackscholes", "water-nsq"];
        let insts = self.insts_per_app / 4;
        let profiles: Vec<_> = selected
            .iter()
            .map(|name| apps::profile(name).expect("known app"))
            .collect();
        let mut baseline = Vec::new();
        for (label, hz, volts) in points {
            let mut totals = [0.0f64; 2];
            for (d, design) in [CpuDesign::BaseCmos, CpuDesign::AdvHet]
                .into_iter()
                .enumerate()
            {
                let mut cfg = design.core_config();
                cfg.clock_hz = hz * (cfg.clock_hz / 2.0e9); // keep relative clocks
                let pull_bound = insts + cfg.steering.lookahead_window() + 1;
                let model = design.energy_model().with_voltages(volts);
                for app in &profiles {
                    let mut core = hetsim_cpu::core::Core::new(cfg.clone(), 0);
                    let trace = hetsim_trace::cache::replay(app, self.seed, 0, pull_bound);
                    let result = core.run(trace, insts);
                    let e = model.energy(&result.stats, &result.mem, result.seconds());
                    totals[d] += e.total_j();
                }
            }
            if baseline.is_empty() {
                baseline = vec![totals[0]];
            }
            r.push_row(
                label,
                vec![totals[0] / baseline[0], totals[1] / baseline[0]],
            );
        }
        r
    }
}

impl Suite {
    /// Extension: the Section VIII iso-area comparison against the
    /// thread-migration CMP, per application.
    pub fn ext_migration(&self) -> Report {
        let mut r = Report::new(
            "Extension (Section VIII): 4-core AdvHet vs 2 CMOS + 2 TFET migration CMP (normalized to AdvHet)",
            vec!["AdvHet time".into(), "migration time".into(), "AdvHet E".into(), "migration E".into()],
        );
        for app in apps::all() {
            let (adv, mig) =
                crate::migration::iso_area_comparison(&app, self.seed, self.insts_per_app);
            r.push_row(
                app.name,
                vec![
                    1.0,
                    mig.seconds / adv.seconds,
                    1.0,
                    mig.energy.total_j() / adv.energy.total_j(),
                ],
            );
        }
        r.push_mean();
        r
    }

    /// Extension: partitioned RF vs. RF cache on the GPU, per kernel,
    /// normalized to BaseCMOS.
    pub fn ext_partitioned_rf(&self) -> Report {
        let mut r = Report::new(
            "Extension (Section VIII): GPU RF organizations (time, normalized to BaseCMOS)",
            vec![
                "BaseHet".into(),
                "AdvHet (RF cache)".into(),
                "AdvHet (part. RF)".into(),
            ],
        );
        for kernel in hetsim_gpu::kernels::all() {
            let base = crate::experiment::run_gpu(GpuDesign::BaseCmos, &kernel, self.seed);
            let values = [
                crate::experiment::run_gpu(GpuDesign::BaseHet, &kernel, self.seed),
                crate::experiment::run_gpu(GpuDesign::AdvHet, &kernel, self.seed),
                crate::experiment::run_gpu(GpuDesign::AdvHetPartitionedRf, &kernel, self.seed),
            ]
            .iter()
            .map(|o| o.seconds / base.seconds)
            .collect();
            r.push_row(kernel.name, values);
        }
        r.push_mean();
        r
    }

    /// Extension: the future-work compiler scheduling pass — BaseHet's
    /// slowdown vs. BaseCMOS with and without scheduling applied to both.
    pub fn ext_scheduling(&self) -> Report {
        let mut r = Report::new(
            "Extension (future work, IV-C4): BaseHet slowdown with compiler scheduling",
            vec!["raw slowdown".into(), "scheduled slowdown".into()],
        );
        for kernel in hetsim_gpu::kernels::all() {
            let base_raw = crate::experiment::run_gpu(GpuDesign::BaseCmos, &kernel, self.seed);
            let het_raw = crate::experiment::run_gpu(GpuDesign::BaseHet, &kernel, self.seed);
            let base_s =
                crate::experiment::run_gpu_scheduled(GpuDesign::BaseCmos, &kernel, self.seed, 6);
            let het_s =
                crate::experiment::run_gpu_scheduled(GpuDesign::BaseHet, &kernel, self.seed, 6);
            r.push_row(
                kernel.name,
                vec![
                    het_raw.seconds / base_raw.seconds,
                    het_s.seconds / base_s.seconds,
                ],
            );
        }
        r.push_mean();
        r
    }
}

/// Voltage factors for a DVFS target frequency, relative to the nominal
/// rails.
fn factors_for(dvfs: &DvfsController, hz: f64, v_cmos0: f64, v_tfet0: f64) -> VoltageFactors {
    let p = dvfs.operating_point(hz).expect("reachable DVFS point");
    VoltageFactors::from_voltages(p.v_cmos, v_cmos0, p.v_tfet, v_tfet0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Suite {
        Suite {
            insts_per_app: 20_000,
            seed: 7,
        }
    }

    #[test]
    fn table1_has_nine_rows_and_four_columns() {
        let t = quick().table1();
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.columns.len(), 4);
        // Spot-check a Table I value: HetJTFET supply voltage.
        assert_eq!(t.rows[0].1[1], 0.40);
    }

    #[test]
    fn fig1_tfet_wins_low_mosfet_wins_high() {
        let f = quick().fig1();
        let low = &f.rows[8].1; // Vg = 0.40
        assert!(low[0] > low[1], "TFET leads at 0.4 V");
        let high = &f.rows[16].1; // Vg = 0.80
        assert!(high[1] > high[0], "MOSFET leads at 0.8 V");
    }

    #[test]
    fn fig3_reproduces_anchor_points() {
        let f = quick().fig3();
        // Row for 0.40 V: TFET = 1 GHz.
        let row = f
            .rows
            .iter()
            .find(|(l, _)| l == "Vdd=0.40V")
            .expect("row exists");
        assert!((row.1[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fig14_shapes() {
        let f = quick().fig14();
        // AdvHet saves energy at every operating point.
        for (label, vals) in &f.rows {
            assert!(
                vals[1] < vals[0],
                "{label}: AdvHet {} vs BaseCMOS {}",
                vals[1],
                vals[0]
            );
        }
        // Guardbands raise energy for both designs.
        let nominal = &f.rows[0].1;
        let guard = &f.rows[3].1;
        assert!(guard[0] > nominal[0]);
        assert!(guard[1] > nominal[1]);
    }

    #[test]
    fn experiment_cli_names_roundtrip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_cli_name(e.cli_name()), Some(e));
        }
        assert_eq!(Experiment::from_cli_name("fig99"), None);
    }
}
