//! The output gate: every outcome the benchmark produces is checked, and
//! each job that fails a check counts as one failed operation.
//!
//! A job fails when its batch panicked, when the program's own outcome
//! invariants (`hetcore::check`) report a violation, or when its outcome
//! differs from the reference batch — the workload's first cold run. The
//! reference batch is itself held to the digest pinned in `digests.txt`
//! at [`DEFAULT_SEED`]; that comparison is one more operation.

use hetsim_check::Checker;
use hetsim_runner::JobKey;
use serde::Serialize;

use crate::workload::{Outcome, Workload, DEFAULT_SEED};

/// Outcome digests pinned for [`DEFAULT_SEED`], one `workload digest`
/// pair per line.
const PINNED: &str = include_str!("../digests.txt");

/// Failures shown in full; the rest are only counted.
const NOTES_SHOWN: usize = 8;

/// Attempted and failed operations of one benchmark run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Jobs whose outcome was checked.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
    /// Counter to bump before checking, if any: the program's
    /// fault-injection hook (`HETSIM_CHECK_PERTURB`), proving the gate
    /// fires.
    perturb: Option<String>,
}

impl Gate {
    /// A gate bumping `perturb` (a `core.*`/`mem.*`/`gpu.*` counter name)
    /// in every outcome before checking it.
    pub fn new(perturb: Option<String>) -> Gate {
        Gate {
            perturb,
            ..Gate::default()
        }
    }

    /// Whether every attempted operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records `jobs` attempted operations that all failed for one reason.
    pub fn fail(&mut self, jobs: u64, why: impl Into<String>) {
        self.attempted += jobs;
        self.failed += jobs;
        self.note(why.into());
    }

    /// Records `jobs` operations that passed a batch-level check.
    pub fn pass(&mut self, jobs: u64) {
        self.attempted += jobs;
    }

    /// One batch-level check, counted as one operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.pass(1);
        } else {
            self.fail(1, why());
        }
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < NOTES_SHOWN {
            self.notes.push(why);
        }
    }

    /// Checks one batch (`what` names it in failure notes): perturbs,
    /// validates, and compares every outcome with `reference`, which is
    /// `None` for the batch that becomes the reference. Returns the
    /// checked outcomes.
    pub fn batch<T: Outcome>(
        &mut self,
        what: &str,
        mut outcomes: Vec<T>,
        reference: Option<&[T]>,
        expected_jobs: usize,
    ) -> Vec<T> {
        if outcomes.len() != expected_jobs {
            self.fail(
                expected_jobs as u64,
                format!(
                    "{what}: {} outcomes for {expected_jobs} jobs",
                    outcomes.len()
                ),
            );
            return outcomes;
        }
        for (i, outcome) in outcomes.iter_mut().enumerate() {
            self.attempted += 1;
            if let Some(counter) = &self.perturb {
                outcome.perturb(counter);
            }
            let mut checker = Checker::new();
            outcome.validate(&mut checker);
            let violations = checker.into_violations();
            let mismatch = reference.is_some_and(|r| r[i] != *outcome);
            if let Some(first) = violations.first() {
                self.failed += 1;
                self.note(format!("{what} job {i}: {first}"));
            } else if mismatch {
                self.failed += 1;
                self.note(format!(
                    "{what} job {i}: outcome differs from the reference batch"
                ));
            }
        }
        outcomes
    }

    /// Holds the reference batch's digest to the one pinned for
    /// `workload` at [`DEFAULT_SEED`] (other seeds have none). The
    /// comparison is one operation of its own.
    pub fn pinned(&mut self, workload: Workload, seed: u64, digest: &str) {
        if seed != DEFAULT_SEED {
            return;
        }
        match pinned_digest(workload) {
            Some(pinned) if pinned == digest => self.pass(1),
            Some(pinned) => self.fail(
                1,
                format!("digest {digest} differs from the pinned {pinned}: outcomes changed"),
            ),
            None => self.fail(1, format!("no digest pinned for {}", workload.name())),
        }
    }
}

/// The digest of a serializable outcome set.
pub fn digest<T: Serialize + ?Sized>(outcomes: &T) -> String {
    JobKey::of(outcomes).hex()
}

fn pinned_digest(workload: Workload) -> Option<&'static str> {
    PINNED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (name, digest) = line.split_once(' ')?;
            (name == workload.name()).then(|| digest.trim())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobSpec;
    use hetcore::{CpuDesign, CpuOutcome};

    fn one_job() -> CpuOutcome {
        let spec = JobSpec::Cpu {
            design: CpuDesign::AdvHet,
            cores: 4,
            app: hetsim_trace::apps::profile("lu").expect("known app"),
            seed: 7,
            insts: 20_000,
        };
        (<CpuOutcome as Outcome>::job(&spec).run)()
    }

    #[test]
    fn clean_outcomes_pass_and_a_perturbed_one_fails() {
        let outcome = one_job();
        let mut clean = Gate::new(None);
        let reference = clean.batch("cold", vec![outcome.clone()], None, 1);
        clean.batch("warm", vec![outcome.clone()], Some(&reference), 1);
        assert_eq!((clean.attempted, clean.failed), (2, 0));
        assert!(clean.correct());

        let mut perturbed = Gate::new(Some("core.committed".into()));
        perturbed.batch("cold", vec![outcome], None, 1);
        assert_eq!((perturbed.attempted, perturbed.failed), (1, 1));
        assert!(!perturbed.correct());
        assert!(
            perturbed.notes[0].contains("violation"),
            "{:?}",
            perturbed.notes
        );
    }

    #[test]
    fn a_mismatch_with_the_reference_fails() {
        let outcome = one_job();
        let mut other = outcome.clone();
        other.seconds *= 1.0 + 1e-12;
        let mut gate = Gate::new(None);
        gate.batch("warm", vec![other], Some(&[outcome]), 1);
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }

    #[test]
    fn missing_outcomes_fail_the_whole_batch() {
        let mut gate = Gate::new(None);
        gate.batch::<CpuOutcome>("cold", Vec::new(), None, 3);
        assert_eq!((gate.attempted, gate.failed), (3, 3));
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for w in Workload::ALL {
            assert!(pinned_digest(w).is_some(), "{}", w.name());
        }
        let mut gate = Gate::new(None);
        gate.pinned(Workload::GpuCampaign, DEFAULT_SEED + 1, "anything");
        assert_eq!(gate.attempted, 0, "only the default seed is pinned");
        gate.pinned(Workload::GpuCampaign, DEFAULT_SEED, "not-the-digest");
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }
}
