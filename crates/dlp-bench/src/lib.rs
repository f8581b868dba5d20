//! # dlp-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation from
//! the simulator stack. The `figures` binary prints one artifact per
//! subcommand (`fig3` … `fig13`, `tab1`, `tab2`, `overhead`,
//! `ablation`, or `all`); the library exposes the runners so
//! integration tests and Criterion benches reuse them.
//!
//! All experiment runs are deterministic; the per-(app, configuration)
//! simulations are independent and executed in parallel with scoped
//! threads. Each job runs once under `catch_unwind` and reports
//! failures as [`harness::RunFailure`] values, so one bad
//! configuration cannot abort a sweep.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod estimate;
pub mod harness;
pub mod persist;
pub mod report;
pub mod telemetry;

pub use estimate::{summarize, Estimate, SamplingSummary};
pub use harness::{
    run_app, run_policy_suite, run_size_suite, AppRun, ExperimentConfig, PolicySuite,
    RunFailure, SizeSuite,
};
pub use report::{geomean, geomean_cell, normalize, Table};
