//! Cycle-leap ⇄ tick-every-cycle equivalence.
//!
//! The cycle-leap event core (see DESIGN.md "Cycle-leap event core")
//! claims its jumps are invisible: every statistic of every run is
//! byte-identical to the tick-every-cycle reference path selected by
//! [`SimConfig::with_reference_ticking`]. These tests pin that claim
//! across representative apps and all four policies, pin the watchdog's
//! behaviour across long leaps (no spurious hang; genuine hangs fire at
//! the identical cycle), and pin the `ticked_cycles` accounting the
//! dlp-bench telemetry reports.

//! The sharded epoch engine (see DESIGN.md §12) makes the same claim
//! one level up: statistics are byte-identical at *any shard count*.
//! The shard-equivalence tests below pin classic vs 2 vs 4 shards over
//! the same app × policy matrix, plus hang parity and the
//! oversubscribed-launcher case where every round is a single cycle.

//! Both matrices also run one sparse-occupancy input: the full 16-SM /
//! 12-partition machine with only four single-warp CTAs chasing
//! pointers, so most SMs, partitions and crossbar ports sit idle for
//! the whole run — the regime the active-set scans skip over.

use dlp_core::PolicyKind;
use gpu_mem::{FaultConfig, FaultKind, FaultSite};
use gpu_sim::isa::TraceOp;
use gpu_sim::{
    Gpu, GridDesc, Kernel, OpStream, RunStats, ShardTelemetry, SimConfig, SimError, VecStream,
};
use gpu_workloads::{build, Scale};

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

/// Is gpu-sim built with the `audit` cargo feature? Under audit every
/// leap is re-simulated tick-by-tick (that is the point — the no-op
/// assertion runs per skipped cycle), so `ticked_cycles` equals the
/// simulated length and the "did we actually skip" assertions below
/// would prove nothing. The feature's fingerprint is the non-zero
/// default audit interval.
fn audit_build() -> bool {
    SimConfig::tesla_m2090(PolicyKind::Baseline).audit_interval != 0
}

/// A latency-bound kernel: 4 CTAs × 1 warp, each a chain of single-lane
/// loads where every address waits on the previous load's ALU result,
/// with a store every fifth step.
struct Chase;

impl Kernel for Chase {
    fn name(&self) -> &str {
        "chase"
    }
    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: 4, warps_per_cta: 1 }
    }
    fn warp_stream(&self, cta: usize, _warp: usize) -> Box<dyn OpStream> {
        let mut ops = Vec::new();
        let mut addr = (cta as u64 + 1) << 20;
        for i in 0..200u32 {
            ops.push(TraceOp::load(i % 4, 1, vec![addr]).with_srcs([2]));
            ops.push(TraceOp::alu(8, 4).with_srcs([1]).with_dst(2));
            if i % 5 == 4 {
                ops.push(TraceOp::store(12, vec![addr + 64]).with_srcs([2]));
            }
            // Revisit a small pool now and then so the L1D sees reuse.
            addr = if i % 3 == 0 { (cta as u64 + 1) << 20 } else { addr * 7 % (1 << 26) + 256 };
        }
        Box::new(VecStream::new(ops))
    }
}

/// Run [`Chase`] on the full machine: leaping (`reference == false`) or
/// tick-every-cycle, at the given shard count.
fn run_sparse(kind: PolicyKind, reference: bool, shards: usize) -> (RunStats, ShardTelemetry) {
    let mut cfg = SimConfig::tesla_m2090(kind).with_shards(shards);
    if reference {
        cfg = cfg.with_reference_ticking();
    }
    let mut gpu = Gpu::new(cfg, Box::new(Chase));
    let stats = gpu.run().unwrap();
    assert!(stats.completed);
    (stats, gpu.shard_telemetry().clone())
}

/// Run one app once; returns the stats and the ticked-cycle count.
fn run_once(app: &str, kind: PolicyKind, reference: bool) -> (RunStats, u64) {
    let mut cfg = SimConfig::tesla_m2090(kind).scaled_down(4);
    if reference {
        cfg = cfg.with_reference_ticking();
    }
    let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
    let stats = gpu.run().unwrap();
    (stats, gpu.ticked_cycles())
}

#[test]
fn leap_and_reference_statistics_are_byte_identical() {
    // Memory-bound, cache-friendly, and mixed apps, all four schemes:
    // the matrix where a leak in the leap's conservative bound would
    // show up as a moved counter. Compare whole-struct equality AND the
    // per-cell FNV digest of the Debug rendering, so a mismatch names
    // the exact cell rather than failing on an opaque struct diff.
    let mut table = String::new();
    let mut mismatches = String::new();
    for app in ["KM", "BFS", "STR", "CFD"] {
        for kind in PolicyKind::ALL {
            let (leap, _) = run_once(app, kind, false);
            let (refr, _) = run_once(app, kind, true);
            let dl = fnv1a(format!("{leap:?}").as_bytes());
            let dr = fnv1a(format!("{refr:?}").as_bytes());
            table.push_str(&format!("  {app:>4}/{kind:<18?} {dl:#018x}\n"));
            if leap != refr || dl != dr {
                mismatches.push_str(&format!(
                    "  {app}/{kind:?}: leap {dl:#018x} != reference {dr:#018x}\n"
                ));
            }
        }
    }
    for kind in PolicyKind::ALL {
        let (leap, _) = run_sparse(kind, false, 1);
        let (refr, _) = run_sparse(kind, true, 1);
        let dl = fnv1a(format!("{leap:?}").as_bytes());
        let dr = fnv1a(format!("{refr:?}").as_bytes());
        table.push_str(&format!("  sparse/{kind:<18?} {dl:#018x}\n"));
        if leap != refr || dl != dr {
            mismatches.push_str(&format!(
                "  sparse/{kind:?}: leap {dl:#018x} != reference {dr:#018x}\n"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle-leap drifted from the tick-every-cycle reference:\n{mismatches}\
         full leap-side digest table:\n{table}"
    );
}

#[test]
fn ticked_cycles_accounting_is_consistent() {
    // Reference mode ticks every simulated cycle; leap mode must tick
    // strictly fewer (STR stalls on memory for most of its run, so if
    // the leap never fired this would fail) while simulating the same
    // number of cycles.
    let (leap, leap_ticked) = run_once("STR", PolicyKind::Baseline, false);
    let (refr, ref_ticked) = run_once("STR", PolicyKind::Baseline, true);
    assert_eq!(leap.cycles, refr.cycles, "modes disagree on simulated length");
    assert_eq!(ref_ticked, refr.cycles, "reference mode must tick every cycle");
    assert!(leap_ticked <= leap.cycles, "cannot tick more cycles than were simulated");
    assert!(
        audit_build() || leap_ticked < leap.cycles,
        "leap mode never skipped a cycle on a memory-bound app \
         ({leap_ticked} ticked of {} simulated)",
        leap.cycles
    );
}

#[test]
fn long_legitimate_leaps_do_not_trip_the_watchdog() {
    // STR spends most of its time stalled on DRAM, so the leap core
    // repeatedly jumps across hundreds of quiet cycles. A watchdog that
    // measured quiet time naively across a jump (now - last_progress at
    // the landing point) would mis-read those jumps as hangs. With a
    // watchdog window well above any real progress gap, the run must
    // complete — and identically to the reference path under the same
    // window.
    let run = |reference: bool| {
        let mut cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        cfg.watchdog_cycles = 5_000;
        if reference {
            cfg = cfg.with_reference_ticking();
        }
        let mut gpu = Gpu::new(cfg, build("STR", Scale::Tiny));
        let stats = gpu.run().unwrap_or_else(|e| panic!("spurious watchdog report: {e}"));
        (stats, gpu.ticked_cycles())
    };
    let (leap, ticked) = run(false);
    let (refr, _) = run(true);
    assert_eq!(leap, refr, "watchdog-armed leap run drifted from reference");
    assert!(
        audit_build() || ticked < leap.cycles,
        "the run never leapt, so the test proved nothing"
    );
}

/// Run one app once with the sharded epoch engine.
fn run_with_shards(app: &str, kind: PolicyKind, shards: usize) -> (RunStats, ShardTelemetry) {
    let cfg = SimConfig::tesla_m2090(kind).scaled_down(4).with_shards(shards);
    let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
    let stats = gpu.run().unwrap();
    (stats, gpu.shard_telemetry().clone())
}

#[test]
fn sharded_statistics_are_byte_identical_at_any_shard_count() {
    // The tentpole contract: the same app × policy matrix as the leap
    // equivalence test, classic single-threaded vs 2 vs 4 shards, must
    // produce byte-identical stats — equality AND matching FNV digests
    // of the Debug rendering, so a drift names the exact cell.
    let mut mismatches = String::new();
    let mut rounds_seen = 0u64;
    for app in ["KM", "BFS", "STR", "CFD"] {
        for kind in PolicyKind::ALL {
            let (classic, _) = run_once(app, kind, false);
            let d1 = fnv1a(format!("{classic:?}").as_bytes());
            for n in [2usize, 4] {
                let (sharded, tel) = run_with_shards(app, kind, n);
                let dn = fnv1a(format!("{sharded:?}").as_bytes());
                assert_eq!(tel.shards, n, "{app}/{kind:?}: engine ignored the shard count");
                rounds_seen += tel.rounds;
                if classic != sharded || d1 != dn {
                    mismatches.push_str(&format!(
                        "  {app}/{kind:?}: classic {d1:#018x} != {n} shards {dn:#018x} \
                         (rounds {}, restarts {})\n",
                        tel.rounds, tel.restarts
                    ));
                }
            }
        }
    }
    for kind in PolicyKind::ALL {
        let (classic, _) = run_sparse(kind, false, 1);
        for n in [2usize, 4] {
            let (sharded, tel) = run_sparse(kind, false, n);
            rounds_seen += tel.rounds;
            if classic != sharded {
                mismatches.push_str(&format!(
                    "  sparse/{kind:?}: classic != {n} shards (rounds {}, restarts {})\n",
                    tel.rounds, tel.restarts
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "sharded execution drifted from the classic path:\n{mismatches}"
    );
    assert!(rounds_seen > 0, "no cell ever ran a barrier round — the engine never engaged");
}

#[test]
fn sharded_telemetry_accounts_every_shard() {
    let (_, tel) = run_with_shards("STR", PolicyKind::Dlp, 4);
    assert_eq!(tel.shards, 4);
    assert_eq!(tel.per_shard_ticked.len(), 4);
    assert_eq!(
        tel.epoch_cycles,
        SimConfig::tesla_m2090(PolicyKind::Dlp).icnt.hop_latency + 1,
        "epoch length must be the crossbar hop latency plus one"
    );
    if tel.restarts == 0 {
        assert!(tel.rounds > 0, "a completed run must have executed rounds");
        assert!(
            tel.per_shard_ticked.iter().any(|&t| t > 0),
            "no shard ever stepped a cycle"
        );
    }
}

#[test]
fn sharded_shard_count_is_clamped_to_the_machine() {
    // More shards than components must silently clamp, not panic or
    // leave idle ghost shards: 64 shards on a 4-SM / 12-partition
    // machine runs (at most) 12.
    let (sharded, tel) = run_with_shards("KM", PolicyKind::Baseline, 64);
    let (classic, _) = run_once("KM", PolicyKind::Baseline, false);
    assert_eq!(sharded, classic);
    assert!(tel.shards <= 12, "shard count must clamp to the component count");
}

#[test]
fn oversubscribed_launcher_is_shard_invariant() {
    // One SM and a deep CTA backlog: CTAs stay pending for most of the
    // run, so every round is a single cycle with a barrier launch scan
    // (the launch-cursor replay path). Statistics must still match, and
    // the empty-SM shards must not deadlock the barriers.
    let run = |shards: usize| {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1).with_shards(shards);
        let mut gpu = Gpu::new(cfg, build("KM", Scale::Tiny));
        let stats = gpu.run().unwrap();
        (stats, gpu.shard_telemetry().clone())
    };
    let (classic, _) = run(1);
    for n in [2usize, 4] {
        let (sharded, tel) = run(n);
        assert_eq!(sharded, classic, "{n}-shard oversubscribed run drifted");
        assert_eq!(tel.shards, n);
    }
}

#[test]
fn genuine_hangs_fire_at_the_identical_cycle_under_shards() {
    // The dropped-packet deadlock of the leap test, sharded: the
    // watchdog must fire at the identical cycle with the identical
    // flow counters, because rounds are clamped to the watchdog
    // deadline exactly as leaps are.
    let report = |shards: usize| {
        let mut cfg =
            SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2).with_shards(shards);
        cfg.watchdog_cycles = 5_000;
        cfg.audit_interval = 0;
        cfg.fault = Some(FaultConfig::single(FaultKind::Drop, FaultSite::IcntForward, 7));
        let mut gpu = Gpu::new(cfg, build("STR", Scale::Tiny));
        match gpu.run().expect_err("a dropped request must not complete") {
            SimError::Hang(r) => r,
            other => panic!("expected a hang, got {other}"),
        }
    };
    let classic = report(1);
    for n in [2usize, 4] {
        let sharded = report(n);
        assert_eq!(sharded.cycle, classic.cycle, "{n} shards: hang fired at a different cycle");
        assert_eq!(sharded.last_progress_cycle, classic.last_progress_cycle);
        assert_eq!(sharded.fetches_sent, classic.fetches_sent);
        assert_eq!(sharded.replies_delivered, classic.replies_delivered);
    }
}

#[test]
fn genuine_hangs_fire_at_the_identical_cycle_under_leap() {
    // A dropped forward packet deadlocks a warp for real. The leap core
    // clamps every jump to the watchdog horizon, so the hang must be
    // detected at exactly the cycle the reference path reports — not a
    // leap-quantum later.
    let report = |reference: bool| {
        let mut cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        cfg.watchdog_cycles = 5_000;
        cfg.audit_interval = 0;
        cfg.fault = Some(FaultConfig::single(FaultKind::Drop, FaultSite::IcntForward, 7));
        if reference {
            cfg = cfg.with_reference_ticking();
        }
        let mut gpu = Gpu::new(cfg, build("STR", Scale::Tiny));
        match gpu.run().expect_err("a dropped request must not complete") {
            SimError::Hang(r) => r,
            other => panic!("expected a hang, got {other}"),
        }
    };
    let leap = report(false);
    let refr = report(true);
    assert_eq!(leap.cycle, refr.cycle, "hang detected at a different cycle under leap");
    assert_eq!(
        leap.last_progress_cycle, refr.last_progress_cycle,
        "modes disagree on when progress stopped"
    );
    assert_eq!(leap.fetches_sent, refr.fetches_sent);
    assert_eq!(leap.replies_delivered, refr.replies_delivered);
}

#[test]
#[should_panic(expected = "active-set limit")]
fn more_than_64_sms_is_rejected() {
    let mut cfg = SimConfig::tesla_m2090(PolicyKind::Baseline);
    cfg.num_sms = 65;
    cfg.icnt.num_sms = 65;
    Gpu::new(cfg, Box::new(Chase));
}
