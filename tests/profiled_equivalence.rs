//! Reuse-distance profiling is passive: an `AccessObserver` watches the
//! L1D's access stream and changes nothing it simulates. Every
//! registry app at `Scale::Tiny` must therefore report identical
//! statistics with and without `profile_rd`, under the baseline and
//! under DLP. The harness keys its run cache on the full configuration,
//! `profile_rd` included, so each pair below is two real simulations.

use dlp_bench::harness::{run_many, ExperimentConfig};
use dlp_core::PolicyKind;
use gpu_workloads::{registry, Scale};

#[test]
fn profiling_reuse_distances_does_not_move_a_statistic() {
    let mut jobs = Vec::new();
    for spec in registry() {
        for policy in [PolicyKind::Baseline, PolicyKind::Dlp] {
            let plain = ExperimentConfig {
                scale: Scale::Tiny,
                ..ExperimentConfig::baseline().with_policy(policy)
            };
            jobs.push((spec.abbr.to_string(), plain));
            jobs.push((spec.abbr.to_string(), ExperimentConfig { profile_rd: true, ..plain }));
        }
    }
    let runs = run_many(&jobs);
    assert_eq!(runs.len(), 2 * 2 * registry().len());
    for (pair, job) in runs.chunks(2).zip(jobs.chunks(2)) {
        let (app, policy) = (&job[0].0, job[0].1.policy);
        let plain = pair[0].as_ref().unwrap_or_else(|f| panic!("{app}/{policy:?}: {f:?}"));
        let profiled = pair[1].as_ref().unwrap_or_else(|f| panic!("{app}/{policy:?}: {f:?}"));
        assert!(plain.rdd.is_none() && profiled.rdd.is_some(), "{app}/{policy:?}: profiling");
        assert_eq!(plain.stats, profiled.stats, "{app}/{policy:?}: profiling moved a statistic");
    }
}
