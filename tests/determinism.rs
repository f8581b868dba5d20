//! The whole simulator must be bit-deterministic: two constructions of
//! the same experiment produce identical statistics, regardless of
//! scheme, geometry or workload randomness (all RNGs are seeded).

use dlp_core::{CacheGeometry, PolicyKind};
use dlp_store::fnv1a;
use gpu_sim::{Gpu, RunStats, SimConfig};
use gpu_workloads::{build, Scale};

fn run_once(app: &str, kind: PolicyKind) -> RunStats {
    let cfg = SimConfig::tesla_m2090(kind).scaled_down(4);
    let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
    gpu.run().unwrap()
}

fn assert_identical(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.thread_insns, b.thread_insns, "{what}: thread insns");
    assert_eq!(a.l1d, b.l1d, "{what}: L1D stats");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats");
    assert_eq!(a.icnt, b.icnt, "{what}: icnt stats");
    assert_eq!(a.dram, b.dram, "{what}: DRAM stats");
    assert_eq!(a.policy, b.policy, "{what}: policy stats");
}

#[test]
fn repeated_runs_are_bit_identical() {
    // The randomized-address apps are the interesting cases.
    for app in ["BFS", "STR", "BT", "PVR", "CFD"] {
        for kind in PolicyKind::ALL {
            let a = run_once(app, kind);
            let b = run_once(app, kind);
            assert_identical(&a, &b, &format!("{app}/{kind:?}"));
        }
    }
}

#[test]
fn rd_profiles_are_deterministic() {
    use rd_tools::RdProfiler;
    let run = |app: &str| {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
        let sink = RdProfiler::new_sink();
        for sm in 0..cfg.num_sms {
            gpu.set_l1d_observer(sm, Box::new(RdProfiler::new(cfg.l1d.geom.num_sets, sink.clone())));
        }
        gpu.run().unwrap();
        let prof = sink.lock();
        (prof.overall, prof.per_pc.len())
    };
    assert_eq!(run("BFS"), run("BFS"));
    assert_eq!(run("STR"), run("STR"));
}

#[test]
fn run_many_is_independent_of_worker_count() {
    // The harness farms jobs out to worker threads; scheduling must not
    // leak into results. A serial sweep and a parallel sweep of the
    // same jobs produce byte-identical statistics, job for job.
    use dlp_bench::harness::{run_many_with_workers, ExperimentConfig};
    let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
    let jobs: Vec<_> =
        ["KM", "MM", "BFS", "STR", "SS"].iter().map(|a| (a.to_string(), cfg)).collect();
    let serial = run_many_with_workers(&jobs, 1);
    // More workers than jobs (8 > 5) exercises the steal path: some
    // workers start with an empty queue and must steal their first job.
    for workers in [4, 8] {
        let parallel = run_many_with_workers(&jobs, workers);
        assert_eq!(serial.len(), parallel.len());
        for ((s, p), (app, _)) in serial.iter().zip(&parallel).zip(&jobs) {
            let s = s.as_ref().unwrap_or_else(|f| panic!("{f}"));
            let p = p.as_ref().unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(
                s.stats, p.stats,
                "{app}: worker count {workers} changed the statistics"
            );
        }
    }
}

#[test]
fn fig10_policy_suite_digest_is_golden() {
    // End-to-end lock on the figure-10 sweep: every statistic of every
    // (app, scheme) cell, fingerprinted. Any change to the simulation
    // engine that alters behaviour — idle-skip ticking, the run cache,
    // replacement-policy scratch buffers — must NOT move this digest;
    // a deliberate fidelity change must update it alongside an entry in
    // CHANGES.md explaining the delta.
    use dlp_bench::harness::{run_policy_suite, LABEL_32K};
    const GOLDEN: u64 = 0x4e25_bd31_86d4_d866;
    let suite = run_policy_suite(Scale::Tiny);
    assert!(suite.failures.is_empty(), "{}", suite.failure_digest());
    let mut canon = String::new();
    let mut cells = String::new();
    for spec in &suite.apps {
        let row = &suite.runs[spec.abbr];
        for label in PolicyKind::ALL.map(|k| k.label()).iter().chain([&LABEL_32K]) {
            let cell = format!("{}/{}: {:?}\n", spec.abbr, label, row[label].stats);
            cells.push_str(&format!(
                "  {:>4}/{:<9} {:#018x}\n",
                spec.abbr,
                label,
                fnv1a(cell.as_bytes())
            ));
            canon.push_str(&cell);
        }
    }
    let digest = fnv1a(canon.as_bytes());
    // On mismatch, print the digest of every (app, scheme) cell so the
    // change is localizable by diffing against a known-good run's table
    // instead of bisecting 100+ jobs by hand.
    assert_eq!(
        digest, GOLDEN,
        "fig10 sweep statistics changed (digest {digest:#018x}, golden {GOLDEN:#018x}).\n\
         Per-cell digests — diff against a pre-change run of this test to find the moved cells:\n\
         {cells}"
    );
}

#[test]
fn different_geometries_differ_but_reproducibly() {
    // STR's tables overflow a 16 KB L1D even at Tiny scale, so doubling
    // the associativity must change the hit pattern.
    let a16 = {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        Gpu::new(cfg, build("STR", Scale::Tiny)).run().unwrap()
    };
    let a32 = {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline)
            .with_l1_geometry(CacheGeometry::fermi_l1d_32k())
            .scaled_down(2);
        Gpu::new(cfg, build("STR", Scale::Tiny)).run().unwrap()
    };
    assert_ne!(a16.l1d.hits, a32.l1d.hits, "more ways must change hit behaviour on STR");
}
