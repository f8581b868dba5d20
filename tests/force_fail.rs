//! The harness failure path, driven by the `DLP_FORCE_FAIL` hook: one
//! app is forced to panic, and a sweep must still complete every other
//! job and name the casualty in its failure digest.
//!
//! Kept in its own test binary because it mutates process environment;
//! the other suites must never observe the variable.

use dlp_bench::harness::{run_many, run_policy_suite, ExperimentConfig, FORCE_FAIL_ENV};
use gpu_workloads::Scale;

#[test]
fn forced_failure_yields_partial_results_and_a_digest() {
    std::env::set_var(FORCE_FAIL_ENV, "KM");

    // run_many: the poisoned job fails on its only attempt, the
    // others succeed, order is preserved.
    let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
    let jobs =
        vec![("MM".to_string(), cfg), ("KM".to_string(), cfg), ("SS".to_string(), cfg)];
    let out = run_many(&jobs);
    assert!(out[0].is_ok() && out[2].is_ok());
    let failure = match &out[1] {
        Err(f) => f,
        Ok(_) => panic!("KM was forced to fail"),
    };
    assert_eq!(failure.app, "KM");
    assert!(failure.error.contains("panic") && failure.error.contains("forced failure"), "{}", failure.error);

    // The fig10 input sweep: every non-poisoned cell present, the
    // digest names app, policy and geometry for each failed job.
    let suite = run_policy_suite(Scale::Tiny);
    assert_eq!(suite.failures.len(), 5, "KM fails under all 4 schemes + 32KB");
    assert!(suite.failures.iter().all(|f| f.app == "KM"));
    let digest = suite.failure_digest();
    assert!(digest.contains("KM") && digest.contains("16KB"), "{digest}");
    assert!(!digest.contains("retr") && !digest.contains("attempt"), "a failed job runs once: {digest}");
    for spec in &suite.apps {
        let row = &suite.runs[spec.abbr];
        let expected = if spec.abbr == "KM" { 0 } else { 5 };
        assert_eq!(row.len(), expected, "{}", spec.abbr);
    }

    std::env::remove_var(FORCE_FAIL_ENV);
}
