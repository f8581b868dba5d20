//! Golden statistics for a congested trace replay.
//!
//! A full-occupancy binary trace (16 SMs × 48 warps, 32-lane memory
//! ops, three stores in every sixteen) is replayed under all four
//! schemes. This is the regime where accesses park behind full miss
//! queues and MSHRs for many cycles — under DLP and Global-Protection
//! mostly behind `Bypass` decisions — so the L1D's stall memo and the L2
//! partitions' refused-head memo replay most retries. The digest pins
//! every statistic the runs report; it was recorded from the simulator
//! that re-ran every retry.
//!
//! It is also the regime where the event core's wake calendar parks SMs
//! on full crossbar ports and lets busy partitions sleep to their next
//! event, so the same trace is replayed with reference ticking too.

use dlp_core::PolicyKind;
use gpu_sim::isa::TraceOp;
use gpu_sim::{ComponentCycles, Gpu, GridDesc, Kernel, OpStream, RunStats, SimConfig, VecStream};
use gpu_workloads::trace::write_binary_trace;
use gpu_workloads::TraceKernel;

/// FNV-1a fingerprint of a canonical stats rendering (same scheme as
/// the golden fig10 digest in `determinism.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 step.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const LINE: u64 = 128;
const MEM_OPS: u64 = 24;

/// 16 CTAs of 48 warps: one CTA fills one SM. Each warp issues
/// `MEM_OPS` 32-lane memory ops, each followed by an ALU op that
/// consumes the load two ops back. Lines are fresh, re-used from the
/// warp's recent past, or gathered from a pool all warps share; the
/// PCs rotate through sixteen, three of which store.
struct Congested;

impl Kernel for Congested {
    fn name(&self) -> &str {
        "congested"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: 16, warps_per_cta: 48 }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        let g = (cta * 48 + warp) as u64;
        let mut rng = mix(g);
        let mut next = |n: u64| {
            rng = mix(rng);
            rng % n
        };
        let mut fresh = (1 << 22) + g * 64;
        let mut ops = Vec::new();
        for i in 0..MEM_OPS {
            let pc = (i % 16) as u32;
            let addrs: Vec<u64> = match pc % 4 {
                1 if i >= 4 => (0..32).map(|l| (fresh - next(4)) * LINE + l * 4).collect(),
                3 => {
                    let lines: Vec<u64> = (0..4).map(|_| (1 << 21) + next(2048)).collect();
                    (0..32).map(|l| lines[l as usize / 8] * LINE + (l % 8) * 4).collect()
                }
                _ => {
                    fresh += 1;
                    (0..32).map(|l| fresh * LINE + l * 4).collect()
                }
            };
            let reg = 1 + (i % 8) as u8;
            ops.push(if matches!(pc, 5 | 10 | 15) {
                TraceOp::store(pc, addrs).with_srcs([20])
            } else {
                TraceOp::load(pc, reg, addrs)
            });
            let src = 1 + ((i + 6) % 8) as u8;
            ops.push(TraceOp::alu(64 + pc, 4 + next(8) as u32).with_srcs([src]).with_dst(20));
        }
        Box::new(VecStream::new(ops))
    }
}

/// Replay the [`Congested`] trace under every scheme, leaping or with
/// reference ticking; returns each run's statistics and component cycles.
fn replay_all(tag: &str, reference: bool) -> Vec<(RunStats, ComponentCycles)> {
    let path =
        std::env::temp_dir().join(format!("dlp-congested-{tag}-{}.dlpt", std::process::id()));
    write_binary_trace(&path, &Congested).unwrap();
    let runs = PolicyKind::ALL
        .iter()
        .map(|&kind| {
            let mut cfg = SimConfig::tesla_m2090(kind);
            if reference {
                cfg = cfg.with_reference_ticking();
            }
            let mut gpu = Gpu::new(cfg, Box::new(TraceKernel::open(&path).unwrap()));
            let stats = gpu.run().unwrap();
            (stats, gpu.component_cycles())
        })
        .collect();
    std::fs::remove_file(&path).ok();
    runs
}

#[test]
fn congested_binary_trace_statistics_are_golden() {
    const GOLDEN: u64 = 0xe63e_763b_fea5_8240;
    let mut canon = String::new();
    let mut runs: Vec<RunStats> = Vec::new();
    for (kind, (stats, _)) in PolicyKind::ALL.iter().zip(replay_all("golden", false)) {
        canon.push_str(&format!("{}: {stats:?}\n", kind.label()));
        runs.push(stats);
    }
    // The regime the memos target: long miss-queue stalls, behind
    // protected bypasses under the two protection schemes.
    for (kind, s) in PolicyKind::ALL.iter().zip(&runs) {
        assert!(s.completed, "{kind:?} did not finish");
        assert!(s.l1d.stall_miss_queue > s.l1d.accesses, "{kind:?}: {:?}", s.l1d);
    }
    for s in &runs[2..] {
        assert!(s.policy.protected_bypasses > s.l1d.accesses / 2, "{:?}", s.policy);
    }
    let digest = fnv1a(canon.as_bytes());
    assert_eq!(digest, GOLDEN, "congested-trace statistics moved ({digest:#018x}):\n{canon}");
}

/// Is gpu-sim built with the `audit` cargo feature? Its default audit
/// interval is non-zero, and audited runs tick every busy component.
fn audit_build() -> bool {
    SimConfig::tesla_m2090(PolicyKind::Baseline).audit_interval != 0
}

#[test]
fn congested_leap_parks_sms_and_sleeps_partitions_without_moving_a_statistic() {
    // Reference ticking cycles every busy SM and partition every cycle:
    // SMs re-offer refused heads and partitions wait on DRAM. Parked SMs
    // replay those refused sends (`icnt.rejects`) and sleeping
    // partitions their DRAM clocks, so every statistic must match while
    // both kinds of component run well under half the reference's
    // cycles. A wake bound that degenerated to "next cycle" would leave
    // them near 1.
    let leap = replay_all("leap", false);
    let refr = replay_all("reference", true);
    for (kind, ((ls, lc), (rs, rc))) in PolicyKind::ALL.iter().zip(leap.iter().zip(&refr)) {
        assert_eq!(ls, rs, "{kind:?}: leap drifted from reference ticking");
        assert!(ls.icnt.rejects > ls.l1d.accesses, "{kind:?}: ports were not congested");
        if !audit_build() {
            assert!(2 * lc.sms < rc.sms, "{kind:?}: SMs did not park ({lc:?} vs {rc:?})");
            assert!(
                2 * lc.partitions < rc.partitions,
                "{kind:?}: partitions did not sleep ({lc:?} vs {rc:?})"
            );
        }
    }
}
