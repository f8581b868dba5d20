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

/// FNV-1a of the ops' `Debug` text for warps (0, 0) and (last CTA,
/// last warp), per app and scale. Recorded from the generators as they
/// were before KM moved to one unroll group per segment; a re-cut that
/// keeps the op sequence must leave every row alone.
const PINNED_OP_STREAMS: &[(&str, Scale, u64, u64)] = &[
    ("HG", Scale::Tiny, 0xefb87bb807061a15, 0x204bf585b806e350),
    ("HS", Scale::Tiny, 0x52a8b8e817af32b4, 0x3cb02e8e673e8bc6),
    ("STEN", Scale::Tiny, 0xc99b21e81fff43b8, 0x61172da803e9d4a2),
    ("SC", Scale::Tiny, 0x63373361a78a9731, 0x1e4524e40858abc1),
    ("BP", Scale::Tiny, 0xcadf249d2f39b58b, 0x432908f1657509f2),
    ("SRAD", Scale::Tiny, 0x6005db53671790ba, 0x8e0b5adb775731b8),
    ("NW", Scale::Tiny, 0xca3540d663016b18, 0x0fb78c4a8e578865),
    ("GEMM", Scale::Tiny, 0x292d8d368d5adead, 0xf65ac7404bf4e294),
    ("BT", Scale::Tiny, 0x22f796e40ba6a7d2, 0xfa5a2798aedcdb5d),
    ("CFD", Scale::Tiny, 0xf21c3208182e5d68, 0x39190e13893f4e08),
    ("PVR", Scale::Tiny, 0x1dc4e06f1285f205, 0x76b4ea0f6e49053b),
    ("SS", Scale::Tiny, 0xf7f37004b2af8c91, 0x680216b08e6e20dd),
    ("BFS", Scale::Tiny, 0x52ba4da5304c27e5, 0x00779242d915551c),
    ("MM", Scale::Tiny, 0xe44e61847a9335fc, 0x13d1450d3d50f5f7),
    ("SRK", Scale::Tiny, 0x49e964377cb95693, 0x64d671dfbae2e65d),
    ("SR2K", Scale::Tiny, 0x358c45cd793eabfe, 0x33ea1668d6847bc4),
    ("KM", Scale::Tiny, 0xdbbe0a71adeaf5b9, 0xde4fdeb0daca2d08),
    ("STR", Scale::Tiny, 0x1da89301034f1db7, 0xca0e9aff25fd0066),
    ("HG", Scale::Full, 0xeb05588f3ab70a1a, 0xc57c8ac8807f1fb4),
    ("HS", Scale::Full, 0x45e107f67f3168ca, 0xd490ae9e467f7cea),
    ("STEN", Scale::Full, 0xb28df2bd2fe2311b, 0x9e6e2112a4436521),
    ("SC", Scale::Full, 0xdb0b0a5fe79ba5cd, 0x14f44135d9b96dad),
    ("BP", Scale::Full, 0x8c55580ff861fefa, 0xcbbb3853b9148d7f),
    ("SRAD", Scale::Full, 0xa6e7ed49af77b50e, 0x92cd3c68db33563a),
    ("NW", Scale::Full, 0xfc4c520c035a2a45, 0xf579a4399b7ce2b4),
    ("GEMM", Scale::Full, 0xffe62d956456cf0f, 0x87a4088b72b3eafd),
    ("BT", Scale::Full, 0x54a0b0299dad73ea, 0xbe6ea4e66c68f82f),
    ("CFD", Scale::Full, 0xd6c3c20cf3c81c3c, 0x405b33b9a51ead24),
    ("PVR", Scale::Full, 0x4b5f636fa5fbc04c, 0x715eab078a9294a6),
    ("SS", Scale::Full, 0xc1fbaab91b87b6be, 0x5c712391ba1cc9f6),
    ("BFS", Scale::Full, 0x80561db6797cf453, 0x443078a71ec92f83),
    ("MM", Scale::Full, 0xab0505807b1e4b2c, 0xab742d79cdcb6a85),
    ("SRK", Scale::Full, 0x65fbcc3562052334, 0x3194b8bcc92a157b),
    ("SR2K", Scale::Full, 0x6cb4d91c6ca0cc54, 0x476602375607bfcc),
    ("KM", Scale::Full, 0xffb5618db9635130, 0x33c2ca52d9a8e414),
    ("STR", Scale::Full, 0x0cf9adf3223e626e, 0x98bcda20ae1b3f45),
    ("KM", Scale::Scaled(2), 0xa2d662bd72957cea, 0x0c8de8521c959f0e),
    ("BFS", Scale::Scaled(2), 0xabbca4c4ffc1467e, 0x0098f0f53ff04904),
    ("STR", Scale::Scaled(2), 0x9f775cb5ccb8a0d3, 0x2d14587174c0bd2d),
];

#[test]
fn generator_op_streams_are_pinned() {
    // An oracle independent of the generators themselves. The
    // op-sequence check in `stream_equivalence.rs` compares a stream
    // with `Kernel::warp_ops`, which is built from the same stream, so
    // only fixed constants catch a segment re-cut that reorders, drops
    // or duplicates ops.
    use std::fmt::Write;
    let digest = |app: &str, scale: Scale| {
        let k = build(app, scale);
        let grid = k.grid();
        [(0, 0), (grid.num_ctas - 1, grid.warps_per_cta - 1)].map(|(cta, warp)| {
            let mut stream = k.warp_stream(cta, warp);
            let mut text = String::new();
            while let Some(op) = stream.next_op() {
                writeln!(text, "{op:?}").unwrap();
            }
            fnv1a(text.as_bytes())
        })
    };
    let mut cases: Vec<(&str, Scale)> = Vec::new();
    for scale in [Scale::Tiny, Scale::Full] {
        cases.extend(gpu_workloads::registry().iter().map(|spec| (spec.abbr, scale)));
    }
    cases.extend(["KM", "BFS", "STR"].map(|app| (app, Scale::Scaled(2))));
    let got: Vec<(&str, Scale, u64, u64)> = cases
        .into_iter()
        .map(|(app, scale)| {
            let [first, last] = digest(app, scale);
            (app, scale, first, last)
        })
        .collect();
    // On mismatch, print the whole table in source form.
    let mut table = String::new();
    for (app, scale, first, last) in &got {
        writeln!(table, "    (\"{app}\", Scale::{scale:?}, {first:#018x}, {last:#018x}),").unwrap();
    }
    assert_eq!(got, PINNED_OP_STREAMS, "generator op streams changed; now:\n{table}");
}
