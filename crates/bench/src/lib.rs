//! # hetsim-bench: the pinned perf-measurement library
//!
//! `repro bench` measures the simulator the way MGSim and MosaicSim
//! report theirs: **simulated instructions per wall second** over a
//! pinned scenario menu, written as schema-versioned `BENCH_*.json`
//! dumps so the repo accumulates a perf trajectory and CI can ratchet
//! it. This crate holds the generic machinery:
//!
//! * [`measure`] — warmup + timed-repeat loop against an injected
//!   [`hetsim_obs::Clock`];
//! * [`RepeatSummary`] — median/min/p95/spread statistics with a
//!   dispersion flag;
//! * [`BenchDump`] / [`ScenarioResult`] / [`HostInfo`] — the
//!   `BENCH_*.json` schema ([`BENCH_SCHEMA`]);
//! * [`compare`] / [`ComparePolicy`] — the noise-aware regression
//!   diff behind `repro bench --compare` and the CI ratchet.
//!
//! The pinned scenario *menu* (which campaigns and microbenches run)
//! lives in `hetcore::bench` — this crate stays simulator-agnostic so
//! `hetcore` can depend on it without a crate cycle.

#![warn(missing_docs)]

mod compare;
mod dump;
mod measure;

pub use compare::{compare, ComparePolicy, CompareReport, ScenarioDiff, Verdict};
pub use dump::{BenchDump, HostInfo, ScenarioResult, BENCH_SCHEMA};
pub use measure::{measure, Measurement, RepeatSummary, NOISY_REL_SPREAD};
