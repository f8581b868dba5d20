//! Sampled ⇄ exact equivalence for SMARTS-style interval sampling.
//!
//! The sampling controller (see DESIGN.md §14) claims three things:
//! leaving `SimConfig::sampling` unset changes nothing, turning it on
//! is deterministic, and the per-window ratio estimators it feeds
//! produce 95% confidence intervals that actually cover the exact-run
//! metric. These tests pin all three across the same app × policy
//! matrix the leap-equivalence suite uses.
//!
//! Everything here is deterministic: the windows are placed by a fixed
//! `seed`, so a cell either passes forever or fails forever — there is
//! no flake budget to spend. Coverage, however, is pinned as a *rate*
//! with a hard relative-error backstop rather than cell-by-cell: at
//! `Scale::Tiny` a run only fits a handful of windows, so the t-interval
//! runs on 3–8 samples and the SMARTS asymptotics (thousands of
//! windows) do not apply. Demanding 100% coverage at this scale would
//! force magic sampling parameters tuned to the current phase
//! alignment — the opposite of a regression pin.

use dlp_bench::{summarize, Estimate, SamplingSummary};
use dlp_core::PolicyKind;
use dlp_store::fnv1a;
use gpu_sim::{Gpu, RunStats, SamplingConfig, SamplingReport, SimConfig};
use gpu_workloads::{build, Scale};

/// Small windows so even `Scale::Tiny` runs collect several samples:
/// 512-cycle warm-up, 512-cycle measurement, 768-cycle fast-forward.
const SAMPLING: SamplingConfig = SamplingConfig { detail: 512, skip: 768, warmup: 512, seed: 1 };

fn run_exact(app: &str, kind: PolicyKind) -> RunStats {
    let cfg = SimConfig::tesla_m2090(kind).scaled_down(4);
    let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
    let stats = gpu.run().unwrap();
    assert!(gpu.sampling_report().is_none(), "exact run must not attach a sampling report");
    stats
}

fn run_sampled(app: &str, kind: PolicyKind) -> (RunStats, SamplingReport) {
    let cfg = SimConfig::tesla_m2090(kind).scaled_down(4).with_sampling(SAMPLING);
    let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
    let stats = gpu.run().unwrap();
    let report =
        gpu.sampling_report().expect("sampled run must attach a sampling report").clone();
    (stats, report)
}

/// The exact-run counterparts of the four estimated metrics, computed
/// with the same definitions `dlp_bench::estimate::summarize` uses.
fn exact_metrics(s: &RunStats) -> [(&'static str, f64); 4] {
    let insns = s.warp_insns as f64;
    [
        ("ipc", insns / s.cycles as f64),
        ("mpki", 1000.0 * (s.l1d.accesses - s.l1d.hits) as f64 / insns),
        ("hit_rate", s.l1d.hits as f64 / s.l1d.accesses as f64),
        ("flits_per_kinsn", 1000.0 * s.icnt.total_flits() as f64 / insns),
    ]
}

fn estimates(sum: &SamplingSummary) -> [(&'static str, Option<Estimate>); 4] {
    [
        ("ipc", sum.ipc),
        ("mpki", sum.mpki),
        ("hit_rate", sum.hit_rate),
        ("flits_per_kinsn", sum.flits_per_kinsn),
    ]
}

#[test]
fn sampled_runs_are_deterministic() {
    // Two identically configured sampled runs must agree byte-for-byte
    // on both the final statistics and every window sample — the same
    // determinism contract every other execution mode honours.
    for (app, kind) in [("STR", PolicyKind::Dlp), ("KM", PolicyKind::Baseline)] {
        let (s1, r1) = run_sampled(app, kind);
        let (s2, r2) = run_sampled(app, kind);
        assert_eq!(s1, s2, "{app}/{kind:?}: sampled stats drifted between identical runs");
        assert_eq!(r1, r2, "{app}/{kind:?}: sampling report drifted between identical runs");
    }
}

#[test]
fn sampling_actually_fast_forwards() {
    // STR stalls on memory for most of its run; if the controller never
    // fast-forwarded, the mode would be exact simulation with extra
    // bookkeeping and the speedup claim would be vacuous.
    let (_, report) = run_sampled("STR", PolicyKind::Baseline);
    let sum = summarize(&report);
    assert!(sum.windows > 0, "no measurement window ever completed");
    assert!(report.ff_cycles > 0, "no cycle was ever fast-forwarded");
    assert!(
        sum.sampled_fraction() < 1.0,
        "sampled fraction is {} — the run never left detailed mode",
        sum.sampled_fraction()
    );
    assert!(report.ff_insns > 0, "fast-forward advanced no instructions");
}

#[test]
fn sampled_estimates_track_the_exact_metrics() {
    // The SMARTS contract, scaled honestly to Tiny runs. Three pins:
    //
    //  1. Every committed estimate lands within 50% relative error of
    //     the exact value — a hard backstop that catches a broken
    //     estimator or a fast-forward that corrupts state, while
    //     tolerating the cold-congestion bias a 512-cycle warm-up
    //     cannot erase on bursty apps (BFS rebuilds its queue depth
    //     over thousands of cycles; each window-edge drain resets it).
    //  2. At least 75% of committed estimates cover the exact value
    //     within their 95% interval. With 3–8 windows per run the
    //     t-interval under-covers, but a real regression (say, the
    //     functional path diverging from detailed semantics) pushes the
    //     rate far below this.
    //  3. KM — cache-friendly, phase-stable, the cell where small-sample
    //     effects are negligible — must cover strictly on every policy
    //     and metric.
    let mut misses = String::new();
    let mut errors = String::new();
    let mut km_misses = String::new();
    let mut committed = 0usize;
    let mut covered = 0usize;
    for app in ["KM", "BFS", "STR", "CFD"] {
        for kind in PolicyKind::ALL {
            let exact = run_exact(app, kind);
            let (_, report) = run_sampled(app, kind);
            let sum = summarize(&report);
            assert!(sum.windows > 0, "{app}/{kind:?}: sampled run collected no windows");
            for ((name, truth), (_, est)) in exact_metrics(&exact).iter().zip(estimates(&sum)) {
                let Some(est) = est else { continue };
                committed += 1;
                let cell = format!(
                    "  {app}/{kind:?} {name}: exact {truth:.4} vs {:.4} ± {:.4}\n",
                    est.mean, est.half
                );
                if est.contains(*truth) {
                    covered += 1;
                } else {
                    misses.push_str(&cell);
                    if app == "KM" {
                        km_misses.push_str(&cell);
                    }
                }
                if (est.mean - truth).abs() > 0.5 * truth.abs() {
                    errors.push_str(&cell);
                }
            }
        }
    }
    assert!(
        committed >= 32,
        "only {committed} estimates were committed across the whole matrix"
    );
    assert!(errors.is_empty(), "estimates strayed beyond 50% of the exact run:\n{errors}");
    assert!(km_misses.is_empty(), "intervals failed to cover on phase-stable KM:\n{km_misses}");
    assert!(
        covered * 4 >= committed * 3,
        "only {covered}/{committed} estimates covered the exact value (need 75%):\n{misses}"
    );
}

#[test]
fn sampled_statistics_are_golden() {
    // The other suites here compare sampled runs with each other or
    // with exact runs through loose estimators, so a drift in the
    // fast-forward or the window-edge drain would move no pin. This
    // digest fixes every statistic and every window sample of the
    // benchmark's sampled apps under Baseline and DLP.
    const GOLDEN: u64 = 0x8892_8fd2_0d8c_0d4e;
    let mut canon = String::new();
    for app in ["KM", "BFS", "STR"] {
        for kind in [PolicyKind::Baseline, PolicyKind::Dlp] {
            let (stats, report) = run_sampled(app, kind);
            assert!(report.ff_insns > 0, "{app}/{kind:?}: nothing was fast-forwarded");
            canon.push_str(&format!("{app}/{}: {stats:?}\n{report:?}\n", kind.label()));
        }
    }
    let digest = fnv1a(canon.as_bytes());
    assert_eq!(digest, GOLDEN, "sampled statistics moved ({digest:#018x}):\n{canon}");
}

#[test]
fn disabling_sampling_is_byte_identical_to_the_seed_path() {
    // `sampling: None` must leave the simulator on the pre-sampling
    // code path exactly: same stats as an independently built exact
    // run, no report, and `SimConfig::default`-style configs unchanged.
    for kind in [PolicyKind::Baseline, PolicyKind::Dlp] {
        let a = run_exact("KM", kind);
        let b = run_exact("KM", kind);
        assert_eq!(a, b, "{kind:?}: exact mode is not deterministic");
    }
    let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline);
    assert!(cfg.sampling.is_none(), "sampling must be off by default");
}
