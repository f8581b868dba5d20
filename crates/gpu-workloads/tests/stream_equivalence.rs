//! Stream ⇄ materialized equivalence: the streaming trace engine must
//! be observationally identical to fully materialized warp traces.
//!
//! Two layers of evidence:
//!
//! 1. **Op-sequence identity** — for every app, pulling a native
//!    generator stream op by op yields exactly `warp_ops`, `peek`
//!    always previews the next pull, and a second stream for the same
//!    `(cta, warp)` replays the identical sequence (the determinism
//!    contract of `Kernel::warp_stream`).
//! 2. **Whole-machine identity** — a full simulation fed through the
//!    `VecStream` compatibility adapter (eager materialization, the
//!    pre-streaming world) produces the same `RunStats` as the native
//!    O(1)-memory stream, under more than one policy and with sampling
//!    on or off. Only `peak_warp_trace_bytes` may differ: that counter
//!    *measures* the materialization the adapter reintroduces.

use gpu_sim::isa::TraceOp;
use gpu_sim::sampling::SamplingConfig;
use gpu_sim::{GridDesc, Gpu, Kernel, OpStream, RunStats, SimConfig, VecStream};
use gpu_workloads::{build, registry, Scale};
use dlp_core::PolicyKind;

/// Wraps any kernel so every warp goes through the eager-materialization
/// adapter: exactly what the simulator consumed before the streaming
/// engine existed.
struct Materialized(Box<dyn Kernel>);

impl Kernel for Materialized {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn grid(&self) -> GridDesc {
        self.0.grid()
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(VecStream::new(self.0.warp_ops(cta, warp)))
    }
}

/// Architectural view of a run: everything except the resident-memory
/// high-water mark, which legitimately differs between a whole-trace
/// adapter and an O(1) generator over the same op sequence.
fn arch(stats: &RunStats) -> RunStats {
    let mut s = stats.clone();
    s.peak_warp_trace_bytes = 0;
    s
}

fn run(kernel: Box<dyn Kernel>, cfg: SimConfig) -> RunStats {
    let mut gpu = Gpu::new(cfg, kernel);
    let stats = gpu.run().expect("simulation failed");
    assert!(stats.completed);
    stats
}

#[test]
fn native_streams_replay_their_materialized_traces() {
    for spec in registry() {
        let k = build(spec.abbr, Scale::Tiny);
        let grid = k.grid();
        // First and last warp of first and last CTA: the corner
        // coordinates where per-warp parameterization bugs live.
        let coords = [
            (0, 0),
            (0, grid.warps_per_cta - 1),
            (grid.num_ctas - 1, 0),
            (grid.num_ctas - 1, grid.warps_per_cta - 1),
        ];
        for (cta, warp) in coords {
            let want = k.warp_ops(cta, warp);
            let mut stream = k.warp_stream(cta, warp);
            let mut got: Vec<TraceOp> = Vec::new();
            loop {
                let previewed = stream.peek().cloned();
                let Some(op) = stream.next_op() else {
                    assert!(previewed.is_none(), "{}: peek past the end", spec.abbr);
                    break;
                };
                assert_eq!(
                    previewed.as_ref(),
                    Some(&op),
                    "{}: peek disagrees with next_op at index {}",
                    spec.abbr,
                    got.len()
                );
                got.push(op);
            }
            assert_eq!(got, want, "{}: stream ({cta},{warp}) diverges", spec.abbr);

            // A second stream for the same warp must be byte-identical.
            let mut again = k.warp_stream(cta, warp);
            let replay: Vec<TraceOp> = std::iter::from_fn(|| again.next_op()).collect();
            assert_eq!(replay, want, "{}: second stream diverges", spec.abbr);
        }
    }
}

#[test]
fn adapter_and_native_runs_are_architecturally_identical() {
    // Every app under Baseline, plus DLP (whose PDPT/VTA machinery
    // reacts to the exact access order) on one reuse-heavy and one
    // irregular app.
    let baseline = registry().into_iter().map(|spec| (spec.abbr, PolicyKind::Baseline));
    let dlp = ["KM", "BFS"].map(|app| (app, PolicyKind::Dlp));
    for (app, policy) in baseline.chain(dlp) {
        let cfg = SimConfig::tesla_m2090(policy);
        let native = run(build(app, Scale::Tiny), cfg);
        let adapted = run(Box::new(Materialized(build(app, Scale::Tiny))), cfg);
        assert_eq!(
            arch(&native),
            arch(&adapted),
            "{app} ({policy:?}): adapter run diverges from native stream"
        );
        // The adapter holds whole traces resident; the native stream
        // must never hold more than the adapter's high-water mark.
        assert!(
            native.peak_warp_trace_bytes <= adapted.peak_warp_trace_bytes,
            "{app} ({policy:?}): native stream ({} B) resident above the materialized bound ({} B)",
            native.peak_warp_trace_bytes,
            adapted.peak_warp_trace_bytes
        );
    }
}

#[test]
fn equivalence_holds_with_sampling_on_and_off() {
    let sampling = SamplingConfig { detail: 500, skip: 1500, warmup: 250, seed: 1 };
    for app in ["KM", "STR"] {
        for sampled in [false, true] {
            let mut cfg = SimConfig::tesla_m2090(PolicyKind::Dlp);
            if sampled {
                cfg = cfg.with_sampling(sampling);
            }
            let native = run(build(app, Scale::Tiny), cfg);
            let adapted = run(Box::new(Materialized(build(app, Scale::Tiny))), cfg);
            assert_eq!(
                arch(&native),
                arch(&adapted),
                "{app}: adapter diverges (sampling: {sampled})"
            );
        }
    }
}

#[test]
fn scaled_workloads_keep_resident_memory_flat() {
    // The scale axis's core claim, asserted in-process: multiplying
    // per-warp work by 10x leaves the per-warp resident footprint
    // unchanged, while the op count actually grows.
    for app in ["BFS", "STR"] {
        let tiny = build(app, Scale::Scaled(1));
        let scaled = build(app, Scale::Scaled(10));
        let mut a = tiny.warp_stream(0, 0);
        let mut b = scaled.warp_stream(0, 0);
        let (mut n_a, mut n_b) = (0u64, 0u64);
        while a.next_op().is_some() {
            n_a += 1;
        }
        while b.next_op().is_some() {
            n_b += 1;
        }
        assert!(n_b > n_a, "{app}: 10x scale did not grow the op stream");
        assert_eq!(
            a.peak_resident_bytes(),
            b.peak_resident_bytes(),
            "{app}: resident footprint grew with scale"
        );
    }
}

#[test]
fn every_segment_stays_small_at_every_scale() {
    // The generator contract: a segment is at most one loop iteration
    // or one unroll group, so a warp's buffered trace stays a few KiB
    // however far the scale axis stretches the loops. A whole inner
    // loop per segment (one K-means point is 257 loads, 86 688 B per
    // warp) makes the simulator walk tens of MB of fresh trace and
    // thrash the host's caches.
    const BOUND: usize = 8 * 1024;
    for spec in registry() {
        for scale in [Scale::Tiny, Scale::Full, Scale::Scaled(10)] {
            let k = build(spec.abbr, scale);
            let grid = k.grid();
            for (cta, warp) in [(0, 0), (grid.num_ctas - 1, grid.warps_per_cta - 1)] {
                let mut stream = k.warp_stream(cta, warp);
                while stream.next_op().is_some() {}
                let peak = stream.peak_resident_bytes();
                assert!(
                    peak <= BOUND,
                    "{} {scale:?} ({cta},{warp}): {peak} B buffered, over {BOUND} B",
                    spec.abbr
                );
            }
        }
    }
}
