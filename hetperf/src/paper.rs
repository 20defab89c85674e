//! `paper_err_pct`: how far the regenerated figure means sit from the
//! values the paper reports (`paper_reference.txt`).

use hetcore::suite::{CpuCampaign, GpuCampaign, Suite};
use hetcore::{CpuDesign, CpuOutcome, GpuDesign, GpuOutcome, Report};
use hetsim_trace::apps;

const REFERENCE: &str = include_str!("../paper_reference.txt");

/// One paper-reported mean, normalized to BaseCMOS.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperValue {
    /// `cpu` or `gpu`.
    pub platform: &'static str,
    /// Figure column (design name).
    pub design: &'static str,
    /// `time`, `energy` or `ed2`.
    pub metric: &'static str,
    /// The reported mean.
    pub value: f64,
}

/// Every paper value of `platform`.
///
/// # Panics
///
/// Panics on a malformed line of the compiled-in reference table.
pub fn reference(platform: &str) -> Vec<PaperValue> {
    REFERENCE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let (fields, _source) = line.split_once('|').expect("`| source` on every line");
            let f: Vec<&'static str> = fields.split_whitespace().collect();
            assert_eq!(f.len(), 4, "platform design metric value: {line}");
            PaperValue {
                platform: f[0],
                design: f[1],
                metric: f[2],
                value: f[3].parse().expect("numeric paper value"),
            }
        })
        .filter(|v| v.platform == platform)
        .collect()
}

/// Mean absolute error of `measured(design, metric)` against `paper`, in
/// percent of each paper value.
pub fn mean_abs_pct_err(paper: &[PaperValue], measured: impl Fn(&str, &str) -> f64) -> f64 {
    let total: f64 = paper
        .iter()
        .map(|p| ((measured(p.design, p.metric) - p.value) / p.value).abs())
        .sum();
    100.0 * total / paper.len() as f64
}

fn mean(report: &Report, design: &str) -> f64 {
    report
        .mean_of(design)
        .unwrap_or_else(|| panic!("no {design} column in {}", report.title))
}

/// `paper_err_pct` of a Figure 7 CPU campaign, outcomes in
/// `Suite::cpu_campaign_jobs` order.
pub fn cpu_err(outcomes: &[CpuOutcome]) -> f64 {
    let per_app = CpuDesign::ALL.len() + 1;
    let campaign = CpuCampaign {
        outcomes: outcomes.chunks(per_app).map(<[_]>::to_vec).collect(),
        app_names: apps::all().iter().map(|a| a.name).collect(),
    };
    let suite = Suite::default();
    let (time, energy, ed2) = (
        suite.fig7(&campaign),
        suite.fig8(&campaign),
        suite.fig9(&campaign),
    );
    mean_abs_pct_err(&reference("cpu"), |design, metric| match metric {
        "time" => mean(&time, design),
        "energy" => mean(&energy, design),
        "ed2" => mean(&ed2, design),
        other => panic!("unknown CPU metric {other}"),
    })
}

/// `paper_err_pct` of a GPU campaign over consecutive seeds, outcomes
/// seed-major in `Suite::gpu_campaign_jobs` order; each figure mean is
/// averaged across the seeds.
pub fn gpu_err(outcomes: &[GpuOutcome]) -> f64 {
    let kernels = hetsim_gpu::kernels::all();
    let per_seed = kernels.len() * GpuDesign::ALL.len();
    let suite = Suite::default();
    let campaigns: Vec<(Report, Report)> = outcomes
        .chunks(per_seed)
        .map(|seed_outcomes| {
            let campaign = GpuCampaign {
                outcomes: seed_outcomes
                    .chunks(GpuDesign::ALL.len())
                    .map(<[_]>::to_vec)
                    .collect(),
                kernel_names: kernels.iter().map(|k| k.name).collect(),
            };
            (suite.fig10(&campaign), suite.fig11(&campaign))
        })
        .collect();
    mean_abs_pct_err(&reference("gpu"), |design, metric| {
        let sum: f64 = campaigns
            .iter()
            .map(|(time, energy)| match metric {
                "time" => mean(time, design),
                "energy" => mean(energy, design),
                other => panic!("unknown GPU metric {other}"),
            })
            .sum();
        sum / campaigns.len() as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_table_parses() {
        let cpu = reference("cpu");
        let gpu = reference("gpu");
        assert_eq!((cpu.len(), gpu.len()), (4, 8));
        assert!(cpu.contains(&PaperValue {
            platform: "cpu",
            design: "AdvHet",
            metric: "energy",
            value: 0.61,
        }));
        let cpu_designs: Vec<String> = hetcore::suite::cpu_campaign_columns();
        for v in &cpu {
            assert!(cpu_designs.iter().any(|d| d == v.design), "{v:?}");
        }
        for v in &gpu {
            assert!(GpuDesign::ALL.iter().any(|d| d.name() == v.design), "{v:?}");
        }
    }

    #[test]
    fn error_is_the_mean_absolute_percentage() {
        let paper = [
            PaperValue {
                platform: "cpu",
                design: "A",
                metric: "time",
                value: 2.0,
            },
            PaperValue {
                platform: "cpu",
                design: "B",
                metric: "energy",
                value: 0.5,
            },
        ];
        // A is 10% high, B is 20% low: mean 15%.
        let err = mean_abs_pct_err(&paper, |design, _| if design == "A" { 2.2 } else { 0.4 });
        assert!((err - 15.0).abs() < 1e-9, "{err}");
        assert_eq!(
            mean_abs_pct_err(&paper, |d, _| if d == "A" { 2.0 } else { 0.5 }),
            0.0
        );
    }
}
