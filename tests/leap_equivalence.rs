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

//! The matrix also runs one sparse-occupancy input: the full 16-SM /
//! 12-partition machine with only four single-warp CTAs chasing
//! pointers, so most SMs, partitions and crossbar ports sit idle for
//! the whole run — the regime the active-set scans skip over.

use dlp_core::PolicyKind;
use gpu_mem::{FaultConfig, FaultKind, FaultSite};
use gpu_sim::isa::TraceOp;
use gpu_sim::{
    Gpu, GridDesc, Kernel, OpStream, RunStats, SamplingConfig, SamplingReport, SimConfig, SimError,
    VecStream,
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
/// tick-every-cycle.
fn run_sparse(kind: PolicyKind, reference: bool) -> RunStats {
    let mut cfg = SimConfig::tesla_m2090(kind);
    if reference {
        cfg = cfg.with_reference_ticking();
    }
    let stats = Gpu::new(cfg, Box::new(Chase)).run().unwrap();
    assert!(stats.completed);
    stats
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
        let leap = run_sparse(kind, false);
        let refr = run_sparse(kind, true);
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
fn sampled_leap_and_reference_statistics_are_byte_identical() {
    // Interval sampling ends every detailed window at a fixed cycle. A
    // window that ends inside a leap stops without stepping its last
    // cycle, so the partitions' DRAM clocks must be settled through that
    // cycle by hand; a lost tick shifts later DRAM timing and moves the
    // statistics of the following windows.
    let sc = SamplingConfig { detail: 512, skip: 768, warmup: 512, seed: 1 };
    let run = |app: &str, kind: PolicyKind, reference: bool| -> (RunStats, SamplingReport) {
        let mut cfg = SimConfig::tesla_m2090(kind).scaled_down(4).with_sampling(sc);
        if reference {
            cfg = cfg.with_reference_ticking();
        }
        let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
        let stats = gpu.run().unwrap();
        assert!(stats.completed, "{app}/{kind:?} did not complete");
        (stats, gpu.sampling_report().cloned().unwrap())
    };
    let mut mismatches = String::new();
    for app in ["KM", "BFS", "STR", "SC", "MM", "GEMM"] {
        for kind in [PolicyKind::Baseline, PolicyKind::Dlp] {
            let (leap, leap_report) = run(app, kind, false);
            let (refr, ref_report) = run(app, kind, true);
            if leap != refr || leap_report != ref_report {
                mismatches.push_str(&format!(
                    "  {app}/{kind:?}: leap {:#018x} != reference {:#018x}\n",
                    fnv1a(format!("{leap:?}{leap_report:?}").as_bytes()),
                    fnv1a(format!("{refr:?}{ref_report:?}").as_bytes()),
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "sampled leap drifted from reference ticking:\n{mismatches}");
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

#[test]
fn oversubscribed_launcher_matches_reference_ticking() {
    // One SM and a deep CTA backlog: CTAs stay pending for most of the
    // run, so nearly every leap window replays fully denied launch
    // scans arithmetically (the launch-cursor replay path). The cursor
    // decides which CTA lands next, so any drift moves the statistics.
    let run = |reference: bool| {
        let mut cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1);
        if reference {
            cfg = cfg.with_reference_ticking();
        }
        Gpu::new(cfg, build("KM", Scale::Tiny)).run().unwrap()
    };
    let leap = run(false);
    assert!(leap.completed);
    assert_eq!(leap, run(true), "oversubscribed leap run drifted from reference");
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
